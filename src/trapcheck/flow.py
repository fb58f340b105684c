"""Deterministic flow integration and dynamical diagnostics.

The recursion's natural clock is the drift timescale ``m(t) = sum gamma_k``;
re-indexing a trajectory by it gives the time-changed path ``X^m_s``.  Two
diagnostics measure how that path relates to the flow of the drift field:

* shadow deficit: ``sup_(0<=h<=T) ||X^m_(t+h) - phi_h(X^m_t)||``, restarted
  from exact trajectory states, whose log should fall linearly in t at the
  noise-decay rate;
* manifold attraction: distance of ``X^m_t`` to the locally invariant set K,
  whose log should fall at the contraction-vs-noise rate.

Both restart/compare only at exact retained states (never at interpolated
points: interpolating an exponentially growing path injects error that grows
like the path itself and swamps the decaying signal).  Each rate is fitted
over the last ``TAIL_FRACTION`` of its grid.  The shadow deficit integrates
every run only over that fit window; its restarts before the window are
integrated for the first kept run alone, whose CSV row lists them, and only
when that row is read.

The default deficit normalization is scale-relative, dividing by
``1 + ||X^m_t||``: on escaping trajectories the absolute one-step flow error
grows with the state and plateaus, while the relative deficit keeps decaying
at the noise rate; absolute mode remains available for bounded paths and
perturbation witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .engine import EnsembleSummary, Trajectory
from .errors import DegenerateTimeChangeError, DomainExitError, InsufficientHorizonError
from .models import ManifoldK, _sq_norms
from .sequences import _unique
from .spectral import TrapSplit, project_pm

__all__ = [
    "TimeChangedPath",
    "flow_path",
    "time_change",
    "restart_positions",
    "apt_deficit",
    "manifold_rate",
    "EnsembleRates",
    "ensemble_apt_deficit",
    "ensemble_manifold_rate",
]

_DISTANCE_FLOOR = 1e-300

#: RK4 step size of the shadow deficit's flow integration.
_APT_STEP = 5e-3

#: Share of a diagnostic's grid, at the end, that its rate fit reads.
TAIL_FRACTION = 1.0 / 3.0

#: Runs whose distances to K the manifold rate computes per pass:
#: it bounds that computation's temporaries to a few
#: ``_RUN_CHUNK * len(capture_times) * d`` arrays.
_RUN_CHUNK = 32

#: RK4 rows (restarts times kept runs) the shadow deficit integrates per
#: pass, at least one restart: it bounds that integration's temporaries to
#: about 12 ``_APT_ROWS * d`` arrays.
_APT_ROWS = 16_384


@dataclass(frozen=True, eq=False)
class TimeChangedPath:
    """Trajectories re-indexed by the drift timescale: one run, states
    (K, d), or a stack of runs on one clock, states (runs, K, d).

    ``states[..., k, :]`` is the exact process state at clock value
    ``s_grid[k]``; diagnostics sample at grid points only.
    """

    s_grid: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        if len(self.s_grid) != self.states.shape[-2]:
            raise ValueError("s_grid and states must have equal length")
        if not np.all(np.diff(self.s_grid) > 0):
            raise DegenerateTimeChangeError(
                "s_grid must be strictly increasing (gamma vanishes on a clock segment)"
            )


@dataclass(frozen=True, eq=False)
class EnsembleRates:
    """Per-run diagnostic rates and their median (NaN rates excluded).

    One row per run the diagnostic kept.  ``deficits`` is the shadow
    diagnostic's (runs, restarts) deficit matrix over its fit window, row i
    the deficits at ``t_values`` that :func:`apt_deficit` gives on that run
    alone, None for the manifold rate.  ``first_run`` is the first kept
    run's CSV columns by name (None when no run was kept), which
    ``first_run_columns`` builds on its first read.
    """

    rates: np.ndarray
    t_values: np.ndarray
    n_excluded: int
    deficits: Optional[np.ndarray] = None
    first_run_columns: Optional[Callable[[], Optional[dict]]] = None

    @property
    def median(self) -> float:
        """``np.median`` of the rates that are not NaN (NaN if none), bit for
        bit: the partition and the mean it takes.  ``np.median`` imports
        ``numpy.ma``."""
        good = self.rates[~np.isnan(self.rates)]
        n = len(good)
        if not n:
            return float("nan")
        mid = [n // 2 - 1, n // 2] if n % 2 == 0 else [n // 2]
        part = np.partition(good, mid + [-1])
        return float(np.mean(part[mid[0] : n // 2 + 1]))

    @cached_property
    def first_run(self) -> Optional[dict]:
        return None if self.first_run_columns is None else self.first_run_columns()


# ---------------------------------------------------------------------------
# flow integration
# ---------------------------------------------------------------------------


def _eval_field(f: Callable, x: np.ndarray) -> np.ndarray:
    try:
        with np.errstate(all="ignore"):
            v = np.asarray(f(x), dtype=np.float64)
    except ArithmeticError as exc:
        raise DomainExitError(f"field evaluation failed: {exc}") from exc
    if v.shape != x.shape:
        raise ValueError(f"field returned shape {v.shape} for input {x.shape}")
    return v


def _rk4_step(f: Callable, x: np.ndarray, hh) -> np.ndarray:
    """One classical 4th-order step of size ``hh`` (a scalar, or one size per
    element of x); the only place the RK4 formula is written.

    Its bits are those of ``x + (hh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 +
    k4)`` with ``k2 = f(x + (0.5 * hh) * k1)`` and so on (IEEE ``+`` and
    ``*`` commute, and ``1.0 * y`` is ``y``), but the sum is kept as it goes
    and each stage is dropped once used: a few arrays of x's size live."""
    k = _eval_field(f, x)
    acc = np.array(k)
    for a, w in ((0.5, 2.0), (0.5, 2.0), (1.0, 1.0)):
        y = a * hh * k
        y += x
        del k
        k = _eval_field(f, y)
        del y
        acc += w * k
    acc *= hh / 6.0
    acc += x
    return acc


def _rk4_segment(f: Callable, x: np.ndarray, dt, h: float) -> np.ndarray:
    """Advance states by duration ``dt`` in ``ceil(dt/h)`` equal RK4 steps
    (none when ``dt`` is 0).

    ``dt`` is a scalar for states (..., d), or one value per row of states
    (rows, d), non-increasing.  Each row then takes its own number of steps
    of its own size, bitwise as if advanced alone, and the rows still
    stepping are always a prefix, which one field call covers.
    """
    dt = np.asarray(dt, dtype=np.float64)
    n = np.maximum(np.ceil(dt / h - 1e-12), dt > 0).astype(np.int64)
    step = dt / np.maximum(n, 1)
    # full-shape step sizes: numpy multiplies by a (rows, 1) column over
    # short rows several times slower than elementwise
    hh = np.broadcast_to(step[..., None], x.shape).copy()
    for m in range(int(n.max(initial=0))):  # n[0], or 0 for no rows
        live = int(np.count_nonzero(n > m))
        if live == n.size:  # every row, as at m == 0 unless some dt is 0
            x = _rk4_step(f, x, hh)
        else:
            if m == 0:
                x = x.copy()  # the caller's rows with dt 0 stay theirs
            x[:live] = _rk4_step(f, x[:live], hh[:live])
    return x


def flow_path(f: Callable, x0, s_grid, h: float = 1e-3) -> TimeChangedPath:
    """Integrate the flow from a point ``x0`` (d,), or from each of a stack
    (runs, d), and record it on a clock grid (a noiseless path)."""
    s = np.asarray(s_grid, dtype=np.float64)
    x = np.array(x0, dtype=np.float64)
    states = np.empty(x.shape[:-1] + (len(s), x.shape[-1]))
    states[..., 0, :] = x
    for k in range(1, len(s)):
        x = _rk4_segment(f, x, float(s[k] - s[k - 1]), h)
        states[..., k, :] = x
    return TimeChangedPath(s_grid=s, states=states)


def time_change(traj: Trajectory, indices=None) -> TimeChangedPath:
    """Re-index a trajectory by the drift timescale of its schedule.

    The grid is the exact prefix-sum value at each retained step (all steps
    by default), so every grid state is an exact process state.  Requires the
    drift steps to be strictly positive on the range (a vanishing prefix has
    no inverse clock).
    """
    if indices is None:
        indices = np.arange(traj.N + 1)
    else:
        indices = _unique(np.asarray(indices, dtype=np.int64))
        if indices[0] < 0 or indices[-1] > traj.N:
            raise ValueError("indices out of trajectory range")
    m = np.asarray(traj.schedule.partial_drift_sum(indices.astype(np.float64)))
    return TimeChangedPath(s_grid=m, states=traj.states[indices])


def _captured_path(summary: EnsembleSummary) -> TimeChangedPath:
    """Every run's captured states on the ensemble's drift clock, read in place."""
    if summary.captured_states is None or not len(summary.capture_times):
        raise ValueError("ensemble has no captured states for diagnostics")
    s = np.asarray(summary.schedule.partial_drift_sum(summary.capture_times.astype(np.float64)))
    return TimeChangedPath(s_grid=s, states=summary.captured_states)


# ---------------------------------------------------------------------------
# shadow deficit
# ---------------------------------------------------------------------------


def restart_positions(s: np.ndarray, T: float, n_restarts: int) -> np.ndarray:
    """Up to ``n_restarts`` log-spaced grid positions to restart a window T
    from; every window [t, t+T] must fit."""
    last = int(np.searchsorted(s, s[-1] - T, side="right") - 1)
    if last < 1:
        raise InsufficientHorizonError(
            f"the drift clock ends at {s[-1]:.4g}: window T = {T:g} "
            "leaves no admissible restart point"
        )
    pos = _unique(np.geomspace(1, last, min(n_restarts, last)).astype(np.int64))
    return pos[s[pos] + T <= s[-1] + 1e-12]


def _kept_rows(a: np.ndarray, ok: Optional[np.ndarray]) -> np.ndarray:
    """The rows of ``a`` that the mask ``ok`` keeps: ``a`` itself when it
    keeps every row (or is None), else a C-order copy from ``np.compress``,
    the layout the reductions over these rows are written against (their
    bits depend on it)."""
    return a if ok is None or ok.all() else np.compress(ok, a, axis=0)


def _batch_deficits(
    s: np.ndarray,
    X: np.ndarray,  # (runs, K, d)
    f: Callable,
    T: float,
    pos: np.ndarray,
    h: float,
    normalization: str,
    ok: Optional[np.ndarray] = None,
):
    """Deficits (B, restarts) of the B runs the mask ``ok`` keeps (every run
    when it is None) and the restarts excluded as a whole.  X is read in place: only
    the grid points in use are gathered, restarts by runs.

    Every restart advances at once, as one (restarts*B, d) RK4 state moved
    one grid segment at a time: restart i's k-th segment runs from s[i+k] to
    s[i+k+1].  The field is row-wise, so each row's result is bitwise what
    integrating its restart alone gives.  A restart is excluded, with deficit
    +inf in every run, when no grid point falls in its window, the field
    fails on one of its rows (a failing stacked segment is redone restart by
    restart to find which) or no kept run has a finite deficit there.
    """
    # restart i compares grid points i+1 .. end-1
    end = np.searchsorted(s, s[pos] + T + 1e-12, side="right")
    n_seg = end - pos - 1
    excluded = n_seg < 1
    cur = _kept_rows(X[:, pos, :], ok).transpose(1, 0, 2).copy()  # (restarts, B, d)
    _, B, d = cur.shape
    if normalization == "scale":
        denom = 1.0 + np.sqrt(_sq_norms(cur))
    else:
        denom = np.ones(cur.shape[:2])
    best = np.zeros(cur.shape[:2])
    for k in range(int(n_seg.max(initial=0))):
        act = np.nonzero(~excluded & (n_seg > k))[0]
        if not len(act):
            break
        j = pos[act] + k + 1
        # longest segment first: _rk4_segment needs dt non-increasing
        order = np.argsort(s[j - 1] - s[j], kind="stable")
        act, j = act[order], j[order]
        dt = s[j] - s[j - 1]
        try:
            x = _rk4_segment(f, cur[act].reshape(-1, d), np.repeat(dt, B), h)
            x = x.reshape(len(act), B, d)
        except DomainExitError:
            x = np.empty((len(act), B, d))
            for a, r in enumerate(act):
                try:
                    x[a] = _rk4_segment(f, cur[r], float(dt[a]), h)
                except DomainExitError:
                    excluded[r] = True
            done = ~excluded[act]
            act, j, x = act[done], j[done], x[done]
        cur[act] = x
        at_j = _kept_rows(X[:, j, :], ok).transpose(1, 0, 2)
        diff = np.sqrt(_sq_norms(at_j - x)) / denom[act]
        diff = np.where(np.isfinite(diff), diff, np.inf)
        best[act] = np.maximum(best[act], diff)
    if B:
        excluded |= ~np.isfinite(best).any(axis=1)
    deficits = np.where(excluded[:, None], np.inf, best).T
    return deficits, excluded


def _tail_count(R: int, tail_fraction: float) -> int:
    """Points in the tail fit of R: the last ``tail_fraction`` of them, at
    least 2, and none when R < 2."""
    return 0 if R < 2 else min(R, max(2, int(np.ceil(R * tail_fraction))))


def _log_slopes(t: np.ndarray, L: np.ndarray):
    """Least-squares slope of log(L) vs t per row of the C-ordered L (rows,
    len(t)), which it overwrites: the mean and the product over it round by
    layout.  NaN for every row when t has fewer than 2 points, and for rows
    with any non-finite log value."""
    if len(t) < 2:
        return np.full(L.shape[0], np.nan)
    np.maximum(L, _DISTANCE_FLOOR, out=L)
    with np.errstate(divide="ignore"):
        np.log(L, out=L)
    tc = t - t.mean()
    denom = float(np.sum(tc**2))
    good = np.all(np.isfinite(L), axis=1)
    slopes = np.full(L.shape[0], np.nan)
    if denom > 0 and good.any():
        Lg = L if good.all() else L[good]
        Lg -= Lg.mean(axis=1, keepdims=True)
        slopes[good] = Lg @ tc / denom
    return slopes


def _grouped_deficits(s, X, f, T, pos, normalization, ok):
    """:func:`_batch_deficits` at the restarts ``pos``, whole restarts at a
    time, ``_APT_ROWS`` rows at most: every row, deficit and exclusion is
    the restart's own, so the groups change no bit."""
    B = len(X) if ok is None else int(np.count_nonzero(ok))
    step = max(1, _APT_ROWS // max(B, 1))
    deficits = np.empty((B, len(pos)))
    excluded = np.empty(len(pos), dtype=bool)
    for i in range(0, len(pos), step):
        group = slice(i, i + step)
        deficits[:, group], excluded[group] = _batch_deficits(
            s, X, f, T, pos[group], _APT_STEP, normalization, ok
        )
    return deficits, excluded


def apt_deficit(
    path: TimeChangedPath,
    f: Callable,
    T: float,
    normalization: str = "scale",
    n_restarts: int = 48,
    ok: Optional[np.ndarray] = None,
) -> EnsembleRates:
    """Shadowing deficit of each run of a time-changed path against its flow.

    For each restart time t (grid states only), integrates the flow from
    ``X^m_t`` and takes the sup of the deviation at all grid points within
    ``[t, t+T]``.  Each run's rate is the least-squares slope of the logs of
    its deficits over the fit window: the last ``TAIL_FRACTION`` of the
    restarts as :func:`restart_positions` places them.  A stack keeps the
    runs the mask ``ok`` keeps (every run when None).

    Every kept run is integrated over the window only, which ``deficits``
    and ``t_values`` cover.  Excluded restarts (see :func:`_batch_deficits`)
    are recorded there as +inf, left out of every fit and counted in
    ``n_excluded``: within the window, so restarts before it move no fit.
    ``first_run`` covers every restart: those before the window are
    integrated for the first kept run alone, when it is first read.  There
    that run's deficit is its own where another run's field fails
    (``DomainExitError``), not +inf.
    """
    if normalization not in ("scale", "absolute"):
        raise ValueError(f"unknown normalization {normalization!r}")
    s = path.s_grid
    X = path.states.reshape((-1,) + path.states.shape[-2:])
    pos = restart_positions(s, T, n_restarts)
    start = len(pos) - _tail_count(len(pos), TAIL_FRACTION)
    window = pos[start:]
    deficits, excluded = _grouped_deficits(s, X, f, T, window, normalization, ok)
    keep = ~excluded
    # the fit overwrites a C-ordered copy, whose layout its bits depend on
    slopes = _log_slopes(s[window[keep]], np.compress(keep, deficits, axis=1))

    def first_run():
        if not len(deficits):
            return None
        r = 0 if ok is None else int(np.argmax(ok))
        before, _ = _grouped_deficits(s, X[r : r + 1], f, T, pos[:start], normalization, None)
        return {"t": s[pos], "deficit": np.concatenate([before[0], deficits[0]])}

    return EnsembleRates(slopes, s[window], int(excluded.sum()), deficits, first_run)


# ---------------------------------------------------------------------------
# manifold attraction
# ---------------------------------------------------------------------------


def _distances_to_K(
    states: np.ndarray,
    K: Optional[ManifoldK],
    split: Optional[TrapSplit],
    x_star,
) -> np.ndarray:
    """Distance in the declared coordinates: the non-repulsive block norm when
    a split is given (exact for affine invariant sets in split coordinates),
    else the ambient orthogonal-complement distance to K."""
    if split is not None:
        if x_star is None:
            raise ValueError("x_star is required with a split")
        _, y_minus = project_pm(split, states, np.asarray(x_star, dtype=np.float64))
        return np.sqrt(_sq_norms(y_minus))
    if K is None:
        raise ValueError("need either K or a split")
    return K.distance(states)


def manifold_rate(
    path: TimeChangedPath,
    K: Optional[ManifoldK] = None,
    split: Optional[TrapSplit] = None,
    x_star=None,
    ok: Optional[np.ndarray] = None,
) -> EnsembleRates:
    """Tail slope of ``log d(X^m_t, K)`` along the clock (over the last
    ``TAIL_FRACTION`` of it), per run the mask ``ok`` keeps (every run when
    None).

    A run whose distances are all exactly 0 lies on K and has rate -inf;
    distances below the floating floor are clamped and count as attained
    decay.  The distances are computed ``_RUN_CHUNK`` runs at a time, and
    only the tail the fit reads is kept.  Each run's distances are bitwise
    what the whole stack at once gives: the matmul makes one product per run.
    """
    s = path.s_grid
    X = path.states.reshape((-1,) + path.states.shape[-2:])
    ok = np.ones(len(X), dtype=bool) if ok is None else ok
    R = len(s)
    k = _tail_count(R, TAIL_FRACTION)
    tail = np.empty((int(ok.sum()), k))
    on_K = np.empty(len(tail), dtype=bool)
    first, j = None, 0
    for r in range(0, len(X), _RUN_CHUNK):
        rows = slice(r, r + _RUN_CHUNK)
        dist = _distances_to_K(_kept_rows(X[rows], ok[rows]), K, split, x_star)
        if first is None and len(dist):
            log = np.log(np.maximum(dist[0], _DISTANCE_FLOOR))
            first = {"t": s, "distance": dist[0], "log_distance": log}
        tail[j : j + len(dist)] = dist[:, R - k :]
        on_K[j : j + len(dist)] = np.all(dist == 0.0, axis=1)
        j += len(dist)
    slopes = _log_slopes(s[R - k :], tail)
    slopes[on_K] = -np.inf
    return EnsembleRates(slopes, s, 0, first_run_columns=lambda: first)


# ---------------------------------------------------------------------------
# ensemble entry points
# ---------------------------------------------------------------------------


def ensemble_apt_deficit(
    summary: EnsembleSummary,
    f: Callable,
    T: float,
    normalization: str = "scale",
    n_restarts: int = 48,
) -> EnsembleRates:
    """:func:`apt_deficit` of the runs that did not blow up, over the
    captured state grid."""
    path = _captured_path(summary)
    return apt_deficit(
        path, f, T, normalization=normalization, n_restarts=n_restarts, ok=summary.ok
    )


def ensemble_manifold_rate(
    summary: EnsembleSummary,
    K: Optional[ManifoldK] = None,
    split: Optional[TrapSplit] = None,
) -> Optional[EnsembleRates]:
    """:func:`manifold_rate` of the unblown runs on the captured state grid, in a ``split``'s
    coordinates centred at the trap when it has both blocks, else to ``K``; None with neither."""
    split = split if split is not None and 1 <= split.delta_plus < split.dim else None
    if split is None and K is None:
        return None
    return manifold_rate(_captured_path(summary), K, split, summary.trap_point, ok=summary.ok)
