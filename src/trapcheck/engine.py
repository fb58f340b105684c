"""Recursion execution and reproducible Monte Carlo ensembles.

One step of the recursion is

    X_{n+1} = X_n + (gamma_{n+1} * g + c_{n+1} * (eps + rem))

and that exact expression (grouping included) is the package-wide canonical
form: the stepper, the reconstruction checks, and the tests all evaluate it
identically, so stored trajectories reconstruct bitwise.

Reproducibility model
---------------------
Each run gets its own counter-based stream: ``Philox`` seeded by
``SeedSequence(master_seed, spawn_key=(run_index,))``.  A run consumes
``model.n_raw`` uniform doubles per step, drawn in step-major blocks (one
step's draws for the whole batch are one contiguous slab); counter-based
streams make the block boundaries irrelevant.  A model whose ``raw_dtype``
is bool reads only ``u >= 0.5`` of each draw, and the block keeps that, one
byte per draw: the streams consume the same words.  Models compute row-wise
with elementwise operations only, so a run's floating-point path is
identical whether executed alone, inside a batch, or on any worker split —
ensembles are bit-reproducible for every worker count.

An ensemble is cut into one contiguous chunk of runs per worker, each a
lockstep batch in its own process, unless it keeps noise statistics: those
are reduced to cross-run step means as one batch goes, so such an ensemble
runs as one batch at any worker count (see :func:`monte_carlo`).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import BlowUpError, InsufficientHorizonError, InsufficientRecordsError
from .models import Model, _sq_norms
from .sequences import Schedule, _unique

__all__ = [
    "Trajectory",
    "EnsembleSummary",
    "CaptureSpec",
    "run",
    "monte_carlo",
    "combine_increment",
]

#: Steps per pre-drawn randomness block (counter-based streams make the
#: blocking invisible to results; this only bounds memory: a block holds
#: ``_RAW_BLOCK * B * n_raw`` draws, 2 MB for 1000 rows of one double draw
#: and 256 kB of one bool draw, and ``_drive`` refills one such buffer for
#: every block).
_RAW_BLOCK = 256

#: Generators whose draws ``_draw_block`` transposes into place together.
_DRAW_TILE = 128

#: Default abort threshold on ||X_n||_inf.
DEFAULT_BLOWUP_BOUND = 1e6

#: Share of the steps, at the end, that the sup-distance statistic covers.
SUP_TAIL_FRACTION = 0.25

#: Levels of the terminal-distance quantiles in ``summary.json``.
_DISTANCE_LEVELS = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)

#: Captured steps reduced per pass, into squared noise norms and then into
#: their cross-run means (a last chunk may hold one more): it bounds the
#: engine's eps buffer to ``(_STEP_CHUNK + 1) * n_runs * d`` doubles and its
#: temporaries to a few arrays of that size.  The chunk size changes no bit of
#: a norm or a mean.  At least 2.
_STEP_CHUNK = 64

#: Runs whose norms :func:`_reduce_chunk` computes at a time: its temporaries
#: are a few ``_PRODUCT_RUNS * _STEP_CHUNK * d`` arrays, not the chunk's.
_PRODUCT_RUNS = 32

#: Norms (runs times steps) whose step means :func:`_reduce_means` takes at a
#: time: its temporaries are a few arrays of this many doubles.  A chunk of a
#: larger batch is reduced a few steps at a time, which changes no bit.
_MEAN_BLOCK = 2**14


def _step_chunks(start: int, stop: int):
    """``(j, end)`` per chunk of the captured steps ``[start, stop)``,
    ``_STEP_CHUNK`` steps at a time.  A lone last step joins the chunk before
    it: a one-step chunk takes other paths, with other bits, through matmul."""
    j = start
    while j < stop:
        end = j + _STEP_CHUNK if stop - j > _STEP_CHUNK + 1 else stop
        yield j, end
        j = end


def _write_csv(path, header, columns) -> None:
    """A CSV with the named ``header`` row, then ``columns`` (1-D arrays or
    blocks of columns) side by side, every value round-trip exact."""
    table = np.column_stack(columns)
    np.savetxt(path, table, delimiter=",", header=",".join(header), comments="", fmt="%.17g")


def combine_increment(gamma: float, g, c: float, eps, rem):
    """The canonical one-step increment ``gamma*g + c*(eps+rem)``.

    Every reconstruction in the package goes through this function so the
    floating-point grouping is always the same.
    """
    return gamma * g + c * (eps + rem)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A single run's full record: every state and every step's pieces.

    ``states[n]`` is X_n for n = 0..N, and ``g[n]``, ``eps[n]``, ``rem[n]``
    are the pieces of step n for n = 0..N-1: ``(4N+1)*d`` doubles in all.
    At every step the canonical reconstruction holds bitwise:

        states[n+1] == states[n] + combine_increment(gamma_{n+1}, g[n], c_{n+1}, eps[n], rem[n])
    """

    schedule: Schedule
    states: np.ndarray
    g: np.ndarray
    eps: np.ndarray
    rem: np.ndarray

    @property
    def N(self) -> int:
        return self.states.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def reconstruction_residual(self) -> float:
        """Max abs deviation of the canonical reconstruction over all steps;
        exactly 0.0 for trajectories produced by this engine."""
        gam = self.schedule.gamma_values[1 : self.N + 1][:, None]
        c = self.schedule.c_values[1 : self.N + 1][:, None]
        rebuilt = self.states[:-1] + combine_increment(gam, self.g, c, self.eps, self.rem)
        return float(np.max(np.abs(rebuilt - self.states[1:]), initial=0.0))

    def to_csv(self, path) -> None:
        """One CSV row per step n = 0..N-1: n, x_*, g_*, eps_*, rem_*."""
        header = ["n"] + [f"{k}_{i}" for k in ("x", "g", "eps", "rem") for i in range(self.dim)]
        ns = np.arange(self.N, dtype=np.float64)
        _write_csv(path, header, [ns, self.states[:-1], self.g, self.eps, self.rem])


@dataclass(frozen=True, eq=False)
class CaptureSpec:
    """What an ensemble keeps besides its summary statistics.

    The three index fields take any sequence of integers;
    :meth:`normalize` makes each a sorted int64 array of distinct values,
    8 bytes per index (a window of a million steps is 8 MB, not the 36 MB
    or more of a tuple of Python ints).  Specs compare by identity.

    state_indices:
        Times n at which every run's state is stored (for diagnostics),
        runs first: ``(n_runs, len(state_indices), d)``.
    increment_indices:
        Step indices at which the ensemble keeps the cross-run means of each
        noise statistic in ``statistics`` (the hypothesis checks need only
        those means at fixed n; ``eps`` itself, its norms, ``g`` and ``rem``
        are not kept).
    full_runs:
        Run indices whose full record is kept, as :func:`run` returns it:
        every state and every step's (g, eps, rem), ``(4N+1) * d`` doubles
        (``(4N+1) * d * 8`` bytes) per kept run.
    statistics:
        ``(projection, power)`` pairs: the squared norm ``||eps @ R.T||^2``
        of the martingale noise under the projection rows ``R`` (a tuple of
        row tuples, or None for the full vector ``eps``), raised to ``power``
        (None: the norm itself).  ``len(statistics) * len(increment_indices)
        * 8`` bytes in all (see :class:`EnsembleSummary`).  Only these means
        are kept, so a check reads the ensemble at the moment exponent and
        ``nu`` fixed here.  Unset, the full vector's squared norm and its
        square: what the noise checks read on the full vector at their
        default ``a`` = 4.
    """

    state_indices: Sequence[int] = ()
    increment_indices: Sequence[int] = ()
    full_runs: Sequence[int] = ()
    statistics: tuple = ((None, None), (None, 2.0))

    @staticmethod
    def normalize(obj, N: int) -> "CaptureSpec":
        """The spec with sorted int64 arrays of distinct indices and distinct
        statistics, checked against the horizon N.  A spec it made before
        is checked and returned as it is, not sorted and copied again."""
        if obj is None:
            obj = CaptureSpec()
        if not isinstance(obj, _NormalizedCapture):
            obj = _NormalizedCapture(
                *(
                    _unique(np.asarray(v, dtype=np.int64))
                    for v in (obj.state_indices, obj.increment_indices, obj.full_runs)
                ),
                statistics=tuple(dict.fromkeys(obj.statistics)),
            )
        s, i, r = obj.state_indices, obj.increment_indices, obj.full_runs
        if len(s) and (s[0] < 0 or s[-1] > N):
            raise ValueError(f"state capture indices must lie in [0, {N}]")
        if len(i) and (i[0] < 0 or i[-1] > N - 1):
            raise ValueError(f"increment capture indices must lie in [0, {N - 1}]")
        if len(r) and r[0] < 0:
            raise ValueError("full_runs must be nonnegative run indices")
        return obj


class _NormalizedCapture(CaptureSpec):
    """A spec that :meth:`CaptureSpec.normalize` made."""


def _quantile(a: np.ndarray, q: float) -> float:
    """``np.quantile(a, q)`` of the sorted, NaN-free ``a``, bit for bit:
    numpy's default linear rule, with the neighbours, weight and ``_lerp``
    it takes (from the upper neighbour when the weight is at least 0.5);
    NaN when ``a`` is empty.  ``np.quantile`` imports ``numpy.ma``."""
    if not len(a):
        return float("nan")
    v = (len(a) - 1) * q
    if v >= len(a) - 1:  # numpy's neighbours are then both a[-1], at index -1
        lo = hi = float(a[-1])
        t = v + 1
    else:
        i = int(np.floor(v))
        lo, hi, t = float(a[i]), float(a[i + 1]), v - i
    diff = hi - lo
    return hi - diff * (1 - t) if t >= 0.5 else lo + diff * t


@dataclass(frozen=True, eq=False)
class EnsembleSummary:
    """Order-insensitive reduction of an ensemble (arrays indexed by run).

    ``noise_means[s, k]`` is the cross-run mean of noise statistic
    ``statistics[s]`` (see :class:`CaptureSpec`) at step
    ``increment_indices[k]``, over the ``noise_counts[k]`` runs that had not
    blown up before that step (a run that blows up at step b counts at the
    captured steps n < b); ``captured_states`` is stored runs-first.

    ``sup_tail_distance[r]`` is run r's sup of ``||X_n - x*||`` over
    ``n in [tail_from, N]`` — the finite-horizon stand-in for "the run
    converges to the trap" (limits are unobservable at finite N).  Blown-up
    runs are flagged, frozen, and excluded from fractions/quantiles.  Its
    checkers and diagnostics read the ``schedule`` it ran on from here.
    """

    model_id: str
    n_runs: int
    N: int
    master_seed: int
    schedule: Schedule
    trap_point: np.ndarray
    tail_from: int
    terminal_states: np.ndarray
    sup_tail_distance: np.ndarray
    blown_up: np.ndarray  # bool per run
    capture_times: np.ndarray
    captured_states: Optional[np.ndarray]  # (n_runs, len(capture_times), d)
    increment_indices: np.ndarray
    statistics: tuple
    noise_means: Optional[np.ndarray]  # (len(statistics), len(increment_indices))
    noise_counts: Optional[np.ndarray]  # (len(increment_indices),) runs per mean
    blowup_step: np.ndarray  # first out-of-region step per run, 0 if none
    chunks: int  # lockstep batches the runs were cut into (see monte_carlo)
    full_runs: dict = field(default_factory=dict)  # run index -> Trajectory

    # never captured; kept readable because perfbench/invoke.py sums their sizes
    captured_g = captured_eps = captured_rem = None

    @property
    def ok(self) -> np.ndarray:
        return ~self.blown_up

    def trajectory(self, run_index: int) -> Trajectory:
        """The full record of a kept run (see ``CaptureSpec.full_runs``),
        bitwise equal to ``run(..., seed=_seed_for_run(master_seed, i))``;
        raises :class:`BlowUpError` if that run left the admissible region."""
        if run_index not in self.full_runs:
            raise InsufficientRecordsError(f"run {run_index} was not kept in full")
        return _checked(self.full_runs[run_index], int(self.blowup_step[run_index]))

    @property
    def blowup_count(self) -> int:
        return int(self.blown_up.sum())

    def terminal_distances(self) -> np.ndarray:
        return np.sqrt(_sq_norms(self.terminal_states - self.trap_point))

    def near_trap_fraction(self, radius: float) -> float:
        """Fraction of (non-blown) runs whose tail-sup distance to the trap
        is below ``radius``."""
        ok = self.ok
        denom = int(ok.sum())
        if denom == 0:
            return 0.0
        near = self.sup_tail_distance[ok] < radius
        return float(near.sum()) / denom

    def distance_quantiles(self) -> dict:
        dist = np.sort(self.terminal_distances()[self.ok])
        return {f"{q:g}": _quantile(dist, q) for q in _DISTANCE_LEVELS}

    def to_dict(self, near_trap_radius: float = 1e-2) -> dict:
        return {
            "model_id": self.model_id,
            "n_runs": int(self.n_runs),
            "N": int(self.N),
            "master_seed": int(self.master_seed),
            "trap_point": [float(v) for v in self.trap_point],
            "tail_from": int(self.tail_from),
            "near_trap_radius": float(near_trap_radius),
            "near_trap_fraction": self.near_trap_fraction(near_trap_radius),
            "terminal_distance_quantiles": self.distance_quantiles(),
            "blowup_count": self.blowup_count,
            "blowup_runs": [int(i) for i in np.nonzero(self.blown_up)[0]],
            "terminal_states": [[float(v) for v in row] for row in self.terminal_states],
        }


# ---------------------------------------------------------------------------
# core lockstep driver
# ---------------------------------------------------------------------------


def _random():
    """``numpy.random``, imported on first use without OpenSSL's libcrypto
    (3.4 MB of RSS), which its ``secrets``, ``hmac`` and ``hashlib`` load
    through ``_hashlib`` for nothing a seeded stream uses.  A ``None`` entry
    for ``_hashlib`` makes them fall back to CPython's own code; then the
    entries that import made are removed, so a later ``import hashlib``
    loads the full module."""
    if "numpy.random" not in sys.modules and "_hashlib" not in sys.modules:
        made = [m for m in ("_hashlib", "hashlib", "hmac", "secrets") if m not in sys.modules]
        sys.modules["_hashlib"] = None
        try:
            import numpy.random  # noqa: F401
        finally:
            for m in made:
                sys.modules.pop(m, None)
    return np.random


def _seed_for_run(master_seed: int, run_index: int) -> np.random.SeedSequence:
    return _random().SeedSequence(int(master_seed), spawn_key=(int(run_index),))


def _generators(master_seed: int, run_indices: Sequence[int]):
    random = _random()
    return [
        random.Generator(random.Philox(_seed_for_run(master_seed, i)))
        for i in run_indices
    ]


def _draw_block(gens, out: np.ndarray, tile: np.ndarray) -> None:
    """Refill ``out`` (C-contiguous, shape (length, B, n_raw)) with uniform
    draws for ``length`` steps, or for a bool ``out`` with ``u >= 0.5`` of
    each: ``[:, b]`` is generator b's stream, so the draws of step j are the
    contiguous ``[j]``.  ``tile`` is a flat scratch buffer of at least
    ``min(_DRAW_TILE, B) * length * n_raw`` doubles."""
    length, B, n_raw = out.shape
    if n_raw:
        # fill a group of generators' draws contiguously, then transpose the
        # group into place: a strided write per generator costs about 1.5x
        # as much at B = 1000.  Both sides are viewed as one opaque item of
        # n_raw draws per (step, run), so the transpose moves a step's
        # draws for a run as one copy, not n_raw strided ones; same bytes.
        rows = min(_DRAW_TILE, B)
        grid = tile[: rows * length * n_raw].reshape(rows, length, n_raw)
        item = f"V{out.itemsize * n_raw}"
        out_rows = out.view(item)[..., 0]
        for b0 in range(0, B, rows):
            group = gens[b0 : b0 + rows]
            for t, g in zip(grid, group):
                g.random(out=t)
            drawn = grid[: len(group)]
            if out.dtype == bool:
                drawn = drawn >= 0.5
            out_rows[:, b0 : b0 + len(group)] = drawn.view(item)[..., 0].T


def _drive(
    model: Model,
    schedule: Schedule,
    x0: np.ndarray,
    N: int,
    gens,
    *,
    tail_from: int,
    capture: CaptureSpec,
    blowup_bound: float,
    keep=(),
):
    """Advance a batch of runs in lockstep; the single workhorse behind both
    ``run`` and ``monte_carlo`` (so a lone run and an ensemble row share every
    floating-point operation).

    At the captured increment steps the batch's noise is reduced to the
    capture's statistics, a chunk of steps at a time: to their cross-run means
    and run counts (``noise_means``, ``noise_counts``).

    ``keep`` lists batch rows whose full record is stored: every state and
    every step's pieces.  A row's states are stored before a blow-up parks
    it, so they are exact up to that step.  A blown row is parked at the
    model's trap after every later step, so its terminal state is the trap.
    """
    if N > schedule.horizon:
        raise InsufficientHorizonError(f"N={N} exceeds schedule horizon {schedule.horizon}")
    trap_point = _trap_point(model)
    B = len(gens)
    d = model.dim
    x = np.broadcast_to(np.asarray(x0, dtype=np.float64), (B, d)).copy()
    aux = model.init_aux(B)
    gam, cs = schedule.gamma_values, schedule.c_values

    state_idx = np.asarray(capture.state_indices, dtype=np.int64)
    # without a statistic, nothing is kept at any step
    inc_idx = np.asarray(capture.increment_indices if capture.statistics else (), np.int64)
    cap_states = np.empty((B, len(state_idx), d)) if len(state_idx) else None
    # eps is kept a chunk of captured steps at a time and reduced to squared
    # norms per projection, and those at once to the statistics' means; k
    # counts the captured steps, and the next one is at inc_idx[k]
    projections = [
        None if rows is None else np.array(rows, dtype=np.float64).reshape(-1, d).T
        for rows in _projection_keys(capture.statistics)
    ]
    n_inc = len(inc_idx)
    chunk_norms = np.empty((len(projections), min(n_inc, _STEP_CHUNK + 1), B))
    means = np.empty((len(capture.statistics), n_inc)) if n_inc else None
    counts = np.empty(n_inc, dtype=np.int64) if n_inc else None
    chunk_ends = {end for _, end in _step_chunks(0, n_inc)}
    eps_chunk = np.empty((min(n_inc, _STEP_CHUNK + 1), B, d))
    k = chunk_start = 0
    next_inc = _index_at(inc_idx, 0)

    keep = np.asarray(keep, dtype=np.int64)
    K = len(keep)
    if K and keep[-1] - keep[0] == K - 1:
        keep = slice(keep[0], keep[-1] + 1)  # a view per step, not a gather
    states = np.empty((K, N + 1, d))
    states[:, 0] = x[keep]
    parts = np.empty((3, K, N, d))  # g, eps, rem

    sup_tail = np.zeros(B)
    blown = np.zeros(B, dtype=bool)
    blowup_step = np.zeros(B, dtype=np.int64)
    any_blown = False  # while no row has blown, no per-step re-parking
    # s counts the stored states, and the next one is at state_idx[s]
    s = int(_index_at(state_idx, 0) == 0)
    if s:
        cap_states[:, 0] = x
    next_state = _index_at(state_idx, s)

    # one draw buffer and one transpose tile, refilled for every block: a
    # model's raw is a view into it, valid during its step_parts call only
    raws = np.empty((min(_RAW_BLOCK, N), B, model.n_raw), model.raw_dtype)
    tile = np.empty(min(_DRAW_TILE, B) * len(raws) * model.n_raw)
    n = 0
    while n < N:
        block = min(_RAW_BLOCK, N - n)
        _draw_block(gens, raws[:block], tile)
        # the block's step sizes as Python floats: scaling an array by one
        # costs less than by a numpy scalar
        gb, cb = gam[n + 1 : n + 1 + block].tolist(), cs[n + 1 : n + 1 + block].tolist()
        for j in range(block):
            g, eps, rem, aux = model.step_parts(x, n, raws[j], aux)
            x = x + combine_increment(gb[j], g, cb[j], eps, rem)
            if any_blown:
                x[blown] = trap_point  # a blown row stays parked
            if K:
                states[:, n + 1] = x[keep]
                parts[0, :, n], parts[1, :, n], parts[2, :, n] = g[keep], eps[keep], rem[keep]

            # one whole-batch reduction per step (ndarray.max without its
            # Python frame); NaN and inf fail the test, so the row-wise rule
            # below runs only when some row may be out
            if not np.maximum.reduce(np.abs(x), axis=None) <= blowup_bound:
                bad = ~np.isfinite(x).all(axis=1) | (np.abs(x).max(axis=1) > blowup_bound)
                new = bad & ~blown
                blowup_step[new] = n + 1
                blown |= new
                any_blown = True
                x[blown] = trap_point  # park blown rows somewhere benign

            if n == next_inc:
                eps_chunk[k - chunk_start] = eps
                k += 1
                if k in chunk_ends:
                    steps = slice(chunk_start, k)
                    norms = chunk_norms[:, : k - chunk_start]
                    _reduce_chunk(eps_chunk[: k - chunk_start], projections, norms)
                    _reduce_means(norms, capture.statistics, inc_idx[steps], blowup_step,
                                  means[:, steps], counts[steps])
                    chunk_start = k
                next_inc = _index_at(inc_idx, k)
            if n + 1 == next_state:
                cap_states[:, s] = x
                s += 1
                next_state = _index_at(state_idx, s)
            if n + 1 >= tail_from:
                # ||x - x*|| per row, one operation per coordinate column
                dist = _sq_norms(x - trap_point)
                np.maximum(sup_tail, np.sqrt(dist, out=dist), out=sup_tail)
            n += 1

    out = {
        "x": x,
        "sup_tail": sup_tail,
        "blown": blown,
        "blowup_step": blowup_step,
        "cap_states": cap_states,
        "noise_means": means,
        "noise_counts": counts,
        "kept": (states, parts),
    }
    return out


def _index_at(indices: np.ndarray, k: int) -> int:
    """``indices[k]`` as a Python int, or -1 past the end."""
    return int(indices[k]) if k < len(indices) else -1


def _reduce_chunk(eps: np.ndarray, projections, out: np.ndarray) -> None:
    """Write ``_sq_norms(eps @ M)`` per projection ``M`` (None: ``eps``
    itself) into ``out[p]`` for the captured steps of ``eps`` (step-major,
    ``(steps, B, d)``).  The product runs on the runs-first view, one
    ``(steps, d) @ M`` per run: the expression the checkers once reduced
    their eps chunks with, so every norm keeps its bits.  A run's norms do
    not depend on the other runs, so ``_PRODUCT_RUNS`` runs go at a time."""
    for r in range(0, eps.shape[1], _PRODUCT_RUNS):
        runs = slice(r, r + _PRODUCT_RUNS)
        part = eps[:, runs]
        for M, norms in zip(projections, out):
            if M is None:
                norms[:, runs] = _sq_norms(part)
            else:
                norms[:, runs] = _sq_norms(part.transpose(1, 0, 2) @ M).T


def _projection_keys(statistics) -> list:
    """The distinct projections of ``statistics``, in order of first use: the
    order of ``_drive``'s squared norms."""
    return list(dict.fromkeys(key for key, _ in statistics))


def _reduce_means(norms, statistics, ns, blowup_step, means, counts) -> None:
    """Write into ``means[s]`` the cross-run mean of ``statistics[s] = (key,
    power)`` at each captured step ``ns`` of ``norms`` (per projection of
    :func:`_projection_keys`, step-major ``(steps, runs)``): the squared norm
    under ``key`` raised to ``power`` (None: the norm itself).  ``counts``
    gets the runs each mean is over, those that had not blown up before the
    step: ``blowup_step`` 0 or above it.

    A mean's bits depend on the layout numpy reduces, so these are the
    layouts the checkers reduced before the engine did: the full vector's
    norms with the runs that count contiguous (numpy sums each step's runs
    pairwise) and a projection's norms one run per row (numpy adds the rows
    in order; a run that does not count adds +0.0, which changes no sum of
    norms).  A step's mean is thus the same in any chunk of steps.
    """
    steps, B = norms.shape[1:]
    width = max(1, _MEAN_BLOCK // B)
    if steps > width:
        for j in range(0, steps, width):
            part = slice(j, j + width)
            _reduce_means(norms[:, part], statistics, ns[part], blowup_step, means[:, part],
                          counts[part])
        return
    keys = _projection_keys(statistics)
    live = (blowup_step == 0) | (ns[:, None] < blowup_step) if blowup_step.any() else None
    if live is not None and live.all():
        live = None
    counts[:] = B if live is None else np.count_nonzero(live, axis=1)
    # the full vector is compressed to the runs that count, over each stretch
    # of steps where they stay the same
    cuts = [0, steps]
    if live is not None:
        cuts[1:1] = (np.flatnonzero((live[1:] != live[:-1]).any(axis=1)) + 1).tolist()
    with np.errstate(invalid="ignore"):  # 0/0: no run counts at a step
        for out, (key, power) in zip(means, statistics):
            sq = norms[keys.index(key)]
            if key is None:
                for a, b in zip(cuts, cuts[1:]):
                    runs = sq[a:b] if live is None else np.compress(live[a], sq[a:b], axis=1)
                    vals = runs.T if power is None else runs.T**power
                    np.divide(np.add.reduce(vals, axis=0), counts[a:b], out=out[a:b])
                continue
            # one run per row, and a last column of zeros: numpy would sum a
            # lone column (a one-step capture) pairwise
            runs = np.zeros((B, steps + 1))
            runs[:, :steps] = sq.T
            vals = runs if power is None else runs**power
            if live is not None:
                vals[:, :steps][~live.T] = 0.0
            np.divide(np.add.reduce(vals, axis=0)[:steps], counts, out=out)


def _kept_trajectories(schedule, kept) -> list:
    """Trajectory objects for the rows ``_drive`` kept in full."""
    states, parts = kept
    return [Trajectory(schedule, states[k], *parts[:, k]) for k in range(len(states))]


def _trap_point(model: Model) -> np.ndarray:
    """The model's trap ``x*``, or the origin when it declares none."""
    trap = model.trap
    return np.zeros(model.dim) if trap is None else np.asarray(trap.x_star, dtype=np.float64)


def _checked(traj: Trajectory, blowup_step: int) -> Trajectory:
    """``traj`` itself, or the BlowUpError of a run that left the region."""
    if blowup_step:
        err = BlowUpError(
            f"state left the admissible region at step {blowup_step}",
            step=blowup_step,
            state=traj.states[blowup_step].copy(),
        )
        err.prefix = traj.states[: blowup_step + 1].copy()
        raise err
    return traj


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def run(
    model: Model,
    schedule: Schedule,
    x0,
    N: int,
    seed,
    blowup_bound: float = DEFAULT_BLOWUP_BOUND,
) -> Trajectory:
    """Execute one trajectory; deterministic in (model, schedule, x0, N, seed).

    ``seed`` is an integer master seed (the run is then identical to run 0 of
    ``monte_carlo`` with that master seed) or a ``numpy.random.SeedSequence``.
    Every state and every step's pieces are stored, ``(4N+1) * d * 8`` bytes.
    Raises :class:`BlowUpError` (with the states up to that step as
    ``prefix``) if the run leaves the region.
    """
    random = _random()
    if not isinstance(seed, random.SeedSequence):
        seed = _seed_for_run(int(seed), 0)
    gens = [random.Generator(random.Philox(seed))]
    res = _drive(
        model,
        schedule,
        x0,
        N,
        gens,
        tail_from=N + 1,
        capture=CaptureSpec(),
        blowup_bound=blowup_bound,
        keep=(0,),
    )
    (traj,) = _kept_trajectories(schedule, res["kept"])
    return _checked(traj, int(res["blowup_step"][0]))


def _chunk_worker(
    model,
    schedule,
    x0,
    N,
    master_seed,
    run_indices,
    tail_from,
    capture,
    blowup_bound,
):
    # the worker derives its runs' seeds from master_seed itself: when the
    # parent built every run's SeedSequence and sent them instead, the peak
    # RSS of the 2,000-run linear_simulate workload rose from 40.8 to 44.3 MB,
    # past the benchmark's 5% bound
    gens = _generators(master_seed, run_indices)
    keep = np.nonzero(np.isin(run_indices, capture.full_runs))[0]
    res = _drive(
        model,
        schedule,
        np.asarray(x0, dtype=np.float64),
        N,
        gens,
        tail_from=tail_from,
        capture=capture,
        blowup_bound=blowup_bound,
        keep=keep,
    )
    res["kept_runs"] = [int(run_indices[k]) for k in keep]
    return res


#: ``_drive``'s per-run outputs, which ``monte_carlo`` merges over chunks
_PER_RUN = ("x", "sup_tail", "blown", "blowup_step", "cap_states")


def _copy_runs(merged: dict, part: dict, runs: slice, n_runs: int) -> None:
    """Copy ``part``'s per-run outputs into their slice ``runs`` of ``merged``,
    allocated at the first part."""
    for key in _PER_RUN:
        val = part[key]
        if val is None:
            continue
        if merged[key] is None:
            merged[key] = np.empty((n_runs,) + val.shape[1:], val.dtype)
        merged[key][runs] = val


def monte_carlo(
    model: Model,
    schedule: Schedule,
    x0,
    N: int,
    n_runs: int,
    master_seed: int,
    workers: int = 1,
    captures=None,
    blowup_bound: float = DEFAULT_BLOWUP_BOUND,
) -> EnsembleSummary:
    """Independent ensemble of ``n_runs`` trajectories.

    Per-run streams are derived from ``(master_seed, run_index)`` alone, and
    all model arithmetic is row-independent, so the summary is bit-identical
    for every ``workers`` value and chunking.  The sup-distance statistic
    covers the last ``SUP_TAIL_FRACTION`` of the steps.
    The runs are cut into one contiguous chunk per worker, each advanced as
    one lockstep batch, except when the capture keeps noise statistics (both
    ``increment_indices`` and ``statistics``): then every run goes in one
    batch at any ``workers``, which reduces the noise to its step means as
    it goes (``EnsembleSummary.chunks`` is the number of batches).  Runs
    named in ``captures.full_runs`` come back whole, through
    :meth:`EnsembleSummary.trajectory`.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    capture = CaptureSpec.normalize(captures, N)
    if len(capture.full_runs) and capture.full_runs[-1] >= n_runs:
        raise ValueError(f"full_runs must lie in [0, {n_runs - 1}]")
    tail_from = max(0, N - int(np.ceil(SUP_TAIL_FRACTION * N)))
    x0 = np.asarray(x0, dtype=np.float64)

    # one contiguous chunk per worker: the lockstep batch is as large as it
    # can be, and the pool pays one task per worker.  Noise statistics keep
    # one batch, whose step means are a few doubles per captured step: a
    # pooled batch would have to return every run's norms to be reduced here
    keeps_noise = bool(len(capture.increment_indices) and capture.statistics)
    chunks = np.array_split(np.arange(n_runs), 1 if keeps_noise else min(workers, n_runs))
    args = [
        (model, schedule, x0, N, master_seed, chunk, tail_from, capture, blowup_bound)
        for chunk in chunks
    ]
    full_runs = {}

    def take_kept(part):  # returns part, after taking its kept runs as trajectories
        full_runs.update(zip(part["kept_runs"], _kept_trajectories(schedule, part["kept"])))
        return part

    if len(chunks) == 1:
        merged = take_kept(_chunk_worker(*args[0]))
    else:
        # a pooled capture keeps no noise statistics
        merged = dict.fromkeys(_PER_RUN + ("noise_means", "noise_counts"))
        import concurrent.futures  # one-batch commands never load it

        with concurrent.futures.ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            futures = [pool.submit(_chunk_worker, *a) for a in args]
            # chunks are consecutive slices of the run range: each part goes
            # into its own slice, so the bits never depend on scheduling; the
            # future holds its part, so it is popped and both go once copied
            for chunk in chunks:
                runs = slice(chunk[0], chunk[-1] + 1)
                _copy_runs(merged, take_kept(futures.pop(0).result()), runs, n_runs)

    return EnsembleSummary(
        model_id=model.id,
        n_runs=n_runs,
        N=N,
        master_seed=int(master_seed),
        schedule=schedule,
        trap_point=_trap_point(model),
        tail_from=tail_from,
        terminal_states=merged["x"],
        sup_tail_distance=merged["sup_tail"],
        blown_up=merged["blown"],
        capture_times=capture.state_indices,
        captured_states=merged["cap_states"],
        increment_indices=capture.increment_indices,
        statistics=capture.statistics,
        noise_means=merged["noise_means"],
        noise_counts=merged["noise_counts"],
        blowup_step=merged["blowup_step"],
        chunks=len(chunks),
        full_runs=full_runs,
    )
