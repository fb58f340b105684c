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
streams make the block boundaries irrelevant.  Models compute row-wise with
elementwise operations only, so a run's floating-point path is identical
whether executed alone, inside a batch, or on any worker split — ensembles
are bit-reproducible for every worker count.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import BlowUpError, InsufficientHorizonError, InsufficientRecordsError
from .models import Model, _row_sum
from .sequences import Schedule

__all__ = [
    "Trajectory",
    "EnsembleSummary",
    "CaptureSpec",
    "run",
    "monte_carlo",
    "empirical_increment_decomposition",
    "DecomposedIncrements",
    "combine_increment",
]

#: Steps per pre-drawn randomness block (counter-based streams make the
#: blocking invisible to results; this only bounds memory: a block holds
#: ``_RAW_BLOCK * B * n_raw`` doubles, 2 MB for 1000 rows of one draw).
_RAW_BLOCK = 256

#: Generators whose draws ``_draw_block`` transposes into place together.
_DRAW_TILE = 128

#: Default abort threshold on ||X_n||_inf.
DEFAULT_BLOWUP_BOUND = 1e6


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

    model_id: str
    seed: object
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
        d = self.dim
        header = ",".join(
            ["n"]
            + [f"x_{i}" for i in range(d)]
            + [f"g_{i}" for i in range(d)]
            + [f"eps_{i}" for i in range(d)]
            + [f"rem_{i}" for i in range(d)]
        )
        ns = np.arange(self.N, dtype=np.float64)
        table = np.column_stack([ns, self.states[:-1], self.g, self.eps, self.rem])
        np.savetxt(path, table, delimiter=",", header=header, comments="", fmt="%.17g")


@dataclass(frozen=True)
class CaptureSpec:
    """What an ensemble keeps besides its summary statistics.

    state_indices:
        Times n at which every run's state is stored (for diagnostics),
        runs first: ``(n_runs, len(state_indices), d)``.
    increment_indices:
        Step indices at which every run's martingale noise ``eps`` is stored
        (for hypothesis checks needing cross-run means at fixed n; ``g`` and
        ``rem`` are not kept).  It is stored step-major,
        ``(len(increment_indices), n_runs, d)``, so a captured step is one
        contiguous write and the checkers, which reduce it a chunk of steps
        at a time, take per-step means over runs along a contiguous axis;
        :class:`EnsembleSummary` shows it runs-first.
    full_runs:
        Run indices whose full record is kept, as :func:`run` returns it:
        every state and every step's (g, eps, rem), ``(4N+1) * d`` doubles
        (``(4N+1) * d * 8`` bytes) per kept run.
    """

    state_indices: tuple = ()
    increment_indices: tuple = ()
    full_runs: tuple = ()

    @staticmethod
    def normalize(obj, N: int) -> "CaptureSpec":
        if obj is None:
            obj = CaptureSpec()
        elif not isinstance(obj, CaptureSpec):
            obj = CaptureSpec(state_indices=tuple(obj))
        s, i, r = (
            np.unique(np.asarray(v, dtype=np.int64))
            for v in (obj.state_indices, obj.increment_indices, obj.full_runs)
        )
        if len(s) and (s[0] < 0 or s[-1] > N):
            raise ValueError(f"state capture indices must lie in [0, {N}]")
        if len(i) and (i[0] < 0 or i[-1] > N - 1):
            raise ValueError(f"increment capture indices must lie in [0, {N - 1}]")
        if len(r) and r[0] < 0:
            raise ValueError("full_runs must be nonnegative run indices")
        return CaptureSpec(
            state_indices=tuple(s), increment_indices=tuple(i), full_runs=tuple(r)
        )


@dataclass(frozen=True, eq=False)
class EnsembleSummary:
    """Order-insensitive reduction of an ensemble (arrays indexed by run).

    ``captured_eps`` has shape ``(n_runs, len(increment_indices), d)`` but
    is a transposed view of step-major storage (see :class:`CaptureSpec`);
    ``captured_states`` is stored runs-first.

    ``sup_tail_distance[r]`` is run r's sup of ``||X_n - x*||`` over
    ``n in [tail_from, N]`` — the finite-horizon stand-in for "the run
    converges to the trap" (limits are unobservable at finite N).  Blown-up
    runs are flagged, frozen, and excluded from fractions/quantiles.
    """

    model_id: str
    n_runs: int
    N: int
    master_seed: int
    trap_point: np.ndarray
    tail_from: int
    terminal_states: np.ndarray
    sup_tail_distance: np.ndarray
    blown_up: np.ndarray  # bool per run
    capture_times: np.ndarray
    captured_states: Optional[np.ndarray]  # (n_runs, len(capture_times), d)
    increment_indices: np.ndarray
    captured_eps: Optional[np.ndarray]  # (n_runs, len(increment_indices), d) view
    blowup_step: np.ndarray  # first out-of-region step per run, 0 if none
    full_runs: dict = field(default_factory=dict)  # run index -> Trajectory

    # never captured; kept readable because perfbench/invoke.py sums their sizes
    captured_g = captured_rem = None

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
        return np.linalg.norm(self.terminal_states - self.trap_point, axis=1)

    def near_trap_fraction(self, radius: float, t: Optional[int] = None) -> float:
        """Fraction of (non-blown) runs within ``radius`` of the trap.

        ``t=None`` uses the tail-sup statistic (strictest); an integer ``t``
        must be a captured time or N.
        """
        ok = self.ok
        denom = int(ok.sum())
        if denom == 0:
            return 0.0
        if t is None:
            near = self.sup_tail_distance[ok] < radius
        elif t == self.N:
            near = self.terminal_distances()[ok] < radius
        else:
            pos = np.searchsorted(self.capture_times, t)
            if pos >= len(self.capture_times) or self.capture_times[pos] != t:
                raise InsufficientRecordsError(f"time {t} was not captured")
            d = np.linalg.norm(self.captured_states[:, pos, :] - self.trap_point, axis=-1)
            near = d[ok] < radius
        return float(near.sum()) / denom

    def distance_quantiles(self, levels=(0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)) -> dict:
        dist = self.terminal_distances()[self.ok]
        if len(dist) == 0:
            return {f"{q:g}": float("nan") for q in levels}
        return {f"{q:g}": float(np.quantile(dist, q)) for q in levels}

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


def _seed_for_run(master_seed: int, run_index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(int(master_seed), spawn_key=(int(run_index),))


def _generators(master_seed: int, run_indices: Sequence[int]):
    return [
        np.random.Generator(np.random.Philox(_seed_for_run(master_seed, i)))
        for i in run_indices
    ]


def _draw_block(gens, length: int, n_raw: int) -> np.ndarray:
    """Uniform draws for ``length`` steps, shape (length, B, n_raw): ``[:, b]``
    is generator b's stream, so the draws of step j are the contiguous ``[j]``."""
    out = np.empty((length, len(gens), n_raw))
    if n_raw:
        # fill a group of generators' draws contiguously, then transpose the
        # group into place: a strided write per generator costs about 1.5x
        # as much at B = 1000
        tile = np.empty((min(_DRAW_TILE, len(gens)), length, n_raw))
        for b0 in range(0, len(gens), len(tile)):
            group = gens[b0 : b0 + len(tile)]
            for t, g in zip(tile, group):
                g.random(out=t)
            out[:, b0 : b0 + len(group)] = tile[: len(group)].transpose(1, 0, 2)
    return out


def _drive(
    model: Model,
    schedule: Schedule,
    x0: np.ndarray,
    N: int,
    gens,
    *,
    tail_from: int,
    trap_point: np.ndarray,
    capture: CaptureSpec,
    blowup_bound: float,
    keep=(),
):
    """Advance a batch of runs in lockstep; the single workhorse behind both
    ``run`` and ``monte_carlo`` (so a lone run and an ensemble row share every
    floating-point operation).

    ``keep`` lists batch rows whose full record is stored: every state and
    every step's pieces.  A row's states are stored before a blow-up parks
    it, so they are exact up to that step.  A blown row is parked at
    ``trap_point`` after every later step, so its terminal state is the trap.
    """
    if N > schedule.horizon:
        raise InsufficientHorizonError(f"N={N} exceeds schedule horizon {schedule.horizon}")
    schedule.prime()
    B = len(gens)
    d = model.dim
    x = np.broadcast_to(np.asarray(x0, dtype=np.float64), (B, d)).copy()
    aux = model.init_aux(B)
    gam, cs = schedule.gamma_values, schedule.c_values

    state_idx = np.asarray(capture.state_indices, dtype=np.int64)
    inc_idx = np.asarray(capture.increment_indices, dtype=np.int64)
    cap_states = np.empty((B, len(state_idx), d)) if len(state_idx) else None
    cap_eps = np.empty((len(inc_idx), B, d)) if len(inc_idx) else None  # step-major
    state_pos = {int(t): k for k, t in enumerate(state_idx)}
    inc_pos = {int(t): k for k, t in enumerate(inc_idx)}

    keep = np.asarray(keep, dtype=np.int64)
    K = len(keep)
    if K and keep[-1] - keep[0] == K - 1:
        keep = slice(keep[0], keep[-1] + 1)  # a view per step, not a gather
    if K:
        states = np.empty((K, N + 1, d))
        states[:, 0] = x[keep]
        parts = np.empty((3, K, N, d))  # g, eps, rem

    sup_tail = np.zeros(B)
    blown = np.zeros(B, dtype=bool)
    blowup_step = np.zeros(B, dtype=np.int64)
    any_blown = False  # while no row has blown, no per-step re-parking
    if 0 in state_pos:
        cap_states[:, state_pos[0]] = x

    n = 0
    while n < N:
        block = min(_RAW_BLOCK, N - n)
        raws = _draw_block(gens, block, model.n_raw)
        for j in range(block):
            g, eps, rem, aux = model.step_parts(x, n, raws[j], aux)
            x = x + combine_increment(gam[n + 1], g, cs[n + 1], eps, rem)
            if any_blown:
                x[blown] = trap_point  # a blown row stays parked
            if K:
                states[:, n + 1] = x[keep]
                parts[0, :, n], parts[1, :, n], parts[2, :, n] = g[keep], eps[keep], rem[keep]

            # one whole-batch reduction per step; NaN and inf fail the test,
            # so the row-wise rule below runs only when some row may be out
            if not np.abs(x).max() <= blowup_bound:
                bad = ~np.isfinite(x).all(axis=1) | (np.abs(x).max(axis=1) > blowup_bound)
                new = bad & ~blown
                blowup_step[new] = n + 1
                blown |= new
                any_blown = True
                x[blown] = trap_point  # park blown rows somewhere benign

            if n in inc_pos:
                cap_eps[inc_pos[n]] = eps
            if (n + 1) in state_pos:
                cap_states[:, state_pos[n + 1]] = x
            if n + 1 >= tail_from:
                # ||x - x*|| per row, one operation per coordinate column:
                # the bits of np.linalg.norm(axis=1) at half its cost
                dist = _row_sum(np.square(x - trap_point).T)
                np.maximum(sup_tail, np.sqrt(dist, out=dist), out=sup_tail)
            n += 1

    out = {
        "x": x,
        "sup_tail": sup_tail,
        "blown": blown,
        "blowup_step": blowup_step,
        "cap_states": cap_states,
        "cap_eps": cap_eps,
    }
    if K:
        out["kept"] = (states, parts)
    return out


def _kept_trajectories(model, schedule, kept, seeds) -> list:
    """Trajectory objects for the rows ``_drive`` kept in full."""
    states, parts = kept
    return [
        Trajectory(
            model_id=model.id,
            seed=seed,
            schedule=schedule,
            states=states[k],
            g=parts[0, k],
            eps=parts[1, k],
            rem=parts[2, k],
        )
        for k, seed in enumerate(seeds)
    ]


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
    if isinstance(seed, np.random.SeedSequence):
        ss, seed_label = seed, seed
    else:
        ss = _seed_for_run(int(seed), 0)
        seed_label = int(seed)
    gens = [np.random.Generator(np.random.Philox(ss))]
    trap = model.trap.x_star if model.trap is not None else np.zeros(model.dim)
    res = _drive(
        model,
        schedule,
        x0,
        N,
        gens,
        tail_from=N + 1,
        trap_point=np.asarray(trap, dtype=np.float64),
        capture=CaptureSpec(),
        blowup_bound=blowup_bound,
        keep=(0,),
    )
    (traj,) = _kept_trajectories(model, schedule, res["kept"], [seed_label])
    return _checked(traj, int(res["blowup_step"][0]))


def _chunk_worker(
    model,
    schedule,
    x0,
    N,
    master_seed,
    run_indices,
    tail_from,
    trap_point,
    capture,
    blowup_bound,
):
    gens = _generators(master_seed, run_indices)
    keep = np.nonzero(np.isin(run_indices, capture.full_runs))[0]
    res = _drive(
        model,
        schedule,
        np.asarray(x0, dtype=np.float64),
        N,
        gens,
        tail_from=tail_from,
        trap_point=trap_point,
        capture=capture,
        blowup_bound=blowup_bound,
        keep=keep,
    )
    res["kept_runs"] = [int(run_indices[k]) for k in keep]
    return res


def monte_carlo(
    model: Model,
    schedule: Schedule,
    x0,
    N: int,
    n_runs: int,
    master_seed: int,
    workers: int = 1,
    captures=None,
    tail_fraction: float = 0.25,
    blowup_bound: float = DEFAULT_BLOWUP_BOUND,
) -> EnsembleSummary:
    """Independent ensemble of ``n_runs`` trajectories.

    Per-run streams are derived from ``(master_seed, run_index)`` alone, and
    all model arithmetic is row-independent, so the summary is bit-identical
    for every ``workers`` value and chunking.  ``tail_fraction`` sets the
    tail window for the sup-distance statistic (last quarter by default).
    The runs are cut into one contiguous chunk per worker, each advanced as
    one lockstep batch.  Runs named in ``captures.full_runs`` come back
    whole, through :meth:`EnsembleSummary.trajectory`.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    capture = CaptureSpec.normalize(captures, N)
    if capture.full_runs and capture.full_runs[-1] >= n_runs:
        raise ValueError(f"full_runs must lie in [0, {n_runs - 1}]")
    trap = model.trap.x_star if model.trap is not None else np.zeros(model.dim)
    trap = np.asarray(trap, dtype=np.float64)
    tail_from = max(0, N - int(np.ceil(tail_fraction * N)))
    x0 = np.asarray(x0, dtype=np.float64)

    # one contiguous chunk per worker: the lockstep batch is as large as it
    # can be, and the pool pays one task per worker
    chunks = np.array_split(np.arange(n_runs), min(workers, n_runs))

    args = [
        (model, schedule, x0, N, master_seed, chunk, tail_from, trap, capture, blowup_bound)
        for chunk in chunks
    ]
    if len(chunks) == 1:
        results = [_chunk_worker(*a) for a in args]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_chunk_worker, *a) for a in args]
            results = [f.result() for f in futures]

    # chunks are consecutive slices of the run range, in submission order, so
    # concatenation is in run order and never depends on scheduling
    def _merge(key, axis=0):
        vals = [r[key] for r in results]
        if vals[0] is None:
            return None
        return vals[0] if len(vals) == 1 else np.concatenate(vals, axis=axis)

    def _runs_first(key):
        steps = _merge(key, axis=1)
        return None if steps is None else steps.transpose(1, 0, 2)

    full_runs = {}
    for r in results:
        if r["kept_runs"]:
            seeds = [_seed_for_run(master_seed, i) for i in r["kept_runs"]]
            trajs = _kept_trajectories(model, schedule, r["kept"], seeds)
            full_runs.update(zip(r["kept_runs"], trajs))

    return EnsembleSummary(
        model_id=model.id,
        n_runs=n_runs,
        N=N,
        master_seed=int(master_seed),
        trap_point=trap,
        tail_from=tail_from,
        terminal_states=_merge("x"),
        sup_tail_distance=_merge("sup_tail"),
        blown_up=_merge("blown"),
        capture_times=np.asarray(capture.state_indices, dtype=np.int64),
        captured_states=_merge("cap_states"),
        increment_indices=np.asarray(capture.increment_indices, dtype=np.int64),
        captured_eps=_runs_first("cap_eps"),
        blowup_step=_merge("blowup_step"),
        full_runs=full_runs,
    )


# ---------------------------------------------------------------------------
# increment decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DecomposedIncrements:
    """Per-step pieces over a range: drift ``gamma*g``, martingale ``c*eps``,
    remainder ``c*rem``, the canonical combined increment, and the running
    martingale sum ``M[i] = sum of c*eps over the first i steps of the range``.
    """

    ns: np.ndarray
    drift: np.ndarray
    martingale: np.ndarray
    remainder: np.ndarray
    combined: np.ndarray
    martingale_cumsum: np.ndarray


def empirical_increment_decomposition(
    traj: Trajectory, window: Optional[tuple] = None
) -> DecomposedIncrements:
    """Split each increment of the window into its three scaled parts.

    The ``combined`` array reconstructs the trajectory bitwise:
    ``states[n+1] == states[n] + combined[i]`` for every row.
    """
    lo, hi = (0, traj.N) if window is None else (int(window[0]), int(window[1]))
    if not (0 <= lo < hi <= traj.N):
        raise ValueError(f"window must satisfy 0 <= lo < hi <= N, got {(lo, hi)}")
    ns = np.arange(lo, hi, dtype=np.int64)
    g, eps, rem = traj.g[lo:hi], traj.eps[lo:hi], traj.rem[lo:hi]
    gam = traj.schedule.gamma_values[ns + 1][:, None]
    c = traj.schedule.c_values[ns + 1][:, None]
    mart = c * eps
    M = np.concatenate([np.zeros((1, traj.dim)), np.cumsum(mart, axis=0)])
    return DecomposedIncrements(
        ns=ns,
        drift=gam * g,
        martingale=mart,
        remainder=c * rem,
        combined=combine_increment(gam, g, c, eps, rem),
        martingale_cumsum=M,
    )
