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
like the path itself and swamps the decaying signal).

The default deficit normalization is scale-relative, dividing by
``1 + ||X^m_t||``: on escaping trajectories the absolute one-step flow error
grows with the state and plateaus, while the relative deficit keeps decaying
at the noise rate; absolute mode remains available for bounded paths and
perturbation witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .engine import EnsembleSummary, Trajectory
from .errors import DegenerateTimeChangeError, DomainExitError
from .models import ManifoldK
from .sequences import Schedule
from .spectral import TrapSplit, project_pm

__all__ = [
    "TimeChangedPath",
    "integrate_flow",
    "flow_path",
    "time_change",
    "AptResult",
    "apt_deficit",
    "ManifoldRateResult",
    "manifold_rate",
    "EnsembleRates",
    "ensemble_apt_deficit",
    "ensemble_manifold_rate",
]

_DISTANCE_FLOOR = 1e-300

#: Runs whose distances to K the ensemble manifold rate computes per pass:
#: it bounds that computation's temporaries to a few
#: ``_RUN_CHUNK * len(capture_times) * d`` arrays.
_RUN_CHUNK = 32


@dataclass(frozen=True, eq=False)
class TimeChangedPath:
    """A trajectory re-indexed by the drift timescale.

    ``states[k]`` is the exact process state at clock value ``s_grid[k]``;
    diagnostics sample at grid points only.
    """

    s_grid: np.ndarray
    states: np.ndarray
    indices: Optional[np.ndarray] = None  # original step indices, if known

    def __post_init__(self):
        if len(self.s_grid) != len(self.states):
            raise ValueError("s_grid and states must have equal length")
        if len(self.s_grid) >= 2 and not np.all(np.diff(self.s_grid) > 0):
            raise DegenerateTimeChangeError("s_grid must be strictly increasing")

    @property
    def duration(self) -> float:
        return float(self.s_grid[-1] - self.s_grid[0])


# ---------------------------------------------------------------------------
# flow integration
# ---------------------------------------------------------------------------


def _eval_field(f: Callable, x: np.ndarray, t_now) -> np.ndarray:
    try:
        with np.errstate(all="ignore"):
            v = np.asarray(f(x), dtype=np.float64)
    except ArithmeticError as exc:
        t_now = float(np.max(t_now))
        raise DomainExitError(
            f"field evaluation failed at flow time {t_now:g}: {exc}", exit_time=t_now
        ) from exc
    if v.shape != x.shape:
        raise ValueError(f"field returned shape {v.shape} for input {x.shape}")
    return v


def _rk4_step(f: Callable, x: np.ndarray, hh, t) -> np.ndarray:
    """One classical 4th-order step of size ``hh`` (a scalar, or one size per
    element of x); the only place the RK4 formula is written."""
    k1 = _eval_field(f, x, t)
    k2 = _eval_field(f, x + (0.5 * hh) * k1, t)
    k3 = _eval_field(f, x + (0.5 * hh) * k2, t)
    k4 = _eval_field(f, x + hh * k3, t)
    return x + (hh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_segment(f: Callable, x: np.ndarray, t0, dt, h: float) -> np.ndarray:
    """Advance states by duration ``dt`` in ``ceil(dt/h)`` equal RK4 steps.

    ``t0`` (the flow time, for error reports) and ``dt`` are scalars for
    states (..., d), or one value per row of states (rows, d) with ``dt``
    non-increasing.  Each row then takes its own number of steps of its own
    size, bitwise as if advanced alone, and the rows still stepping are
    always a prefix, which one field call covers.
    """
    if np.ndim(dt) == 0:
        if dt == 0.0:
            return x
        n = max(1, int(np.ceil(dt / h - 1e-12)))
        hh = dt / n
        t = t0
        for _ in range(n):
            x = _rk4_step(f, x, hh, t)
            t += hh
        return x
    n = np.maximum(1, np.ceil(dt / h - 1e-12)).astype(np.int64)
    step = dt / n
    # full-shape step sizes: numpy multiplies by a (rows, 1) column over
    # short rows several times slower than elementwise
    hh = np.repeat(step[:, None], x.shape[1], axis=1)
    t = np.array(t0, dtype=np.float64)
    for m in range(int(n.max(initial=0))):  # n[0], or 0 for no rows
        live = int(np.count_nonzero(n > m))
        if live == len(x):  # always so at m == 0, which makes x our own
            x = _rk4_step(f, x, hh, t)
        else:
            x[:live] = _rk4_step(f, x[:live], hh[:live], t[:live])
        t[:live] += step[:live]
    return x


def integrate_flow(f: Callable, x0, h: float, T: float) -> np.ndarray:
    """``phi_T(x0)`` by fixed-step 4th-order integration (error O(h^4)).

    ``x0`` may be a single point (d,) or a batch (..., d); the field must
    accept the same shape.  Raises :class:`DomainExitError` (carrying the exit
    time) if the field fails or the state leaves the finite range.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    if T < 0:
        raise ValueError("duration T must be nonnegative")
    x = np.array(x0, dtype=np.float64)
    out = _rk4_segment(f, x, 0.0, float(T), h)
    if not np.all(np.isfinite(out)):
        raise DomainExitError(
            f"flow left the finite range within duration {T:g}", exit_time=float(T)
        )
    return out


def flow_path(f: Callable, x0, s_grid, h: float = 1e-3) -> TimeChangedPath:
    """Integrate the flow and record it on a clock grid (a noiseless path)."""
    s = np.asarray(s_grid, dtype=np.float64)
    x = np.array(x0, dtype=np.float64)
    states = np.empty((len(s),) + x.shape)
    states[0] = x
    for k in range(1, len(s)):
        x = _rk4_segment(f, x, float(s[k - 1]), float(s[k] - s[k - 1]), h)
        states[k] = x
    return TimeChangedPath(s_grid=s, states=states)


def time_change(
    traj: Trajectory, schedule: Optional[Schedule] = None, indices=None
) -> TimeChangedPath:
    """Re-index a trajectory by the drift timescale.

    The grid is the exact prefix-sum value at each retained step (all steps
    by default), so every grid state is an exact process state.  Requires the
    drift steps to be strictly positive on the range (a vanishing prefix has
    no inverse clock).
    """
    sched = schedule if schedule is not None else traj.schedule
    if indices is None:
        indices = np.arange(traj.N + 1)
    else:
        indices = np.unique(np.asarray(indices, dtype=np.int64))
        if indices[0] < 0 or indices[-1] > traj.N:
            raise ValueError("indices out of trajectory range")
    m = np.asarray(sched.partial_drift_sum(indices.astype(np.float64)))
    if np.any(np.diff(m) <= 0):
        raise DegenerateTimeChangeError(
            "drift timescale is not strictly increasing on the range "
            "(gamma vanishes somewhere, e.g. on a prefix)"
        )
    return TimeChangedPath(s_grid=m, states=traj.states[indices], indices=indices)


# ---------------------------------------------------------------------------
# shadow deficit
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AptResult:
    """Per-restart shadow deficits and the fitted tail decay rate."""

    t_values: np.ndarray
    deficits: np.ndarray
    rate: float
    n_fit: int
    n_excluded: int
    normalization: str
    T: float

    def to_csv(self, path) -> None:
        table = np.column_stack([self.t_values, self.deficits])
        np.savetxt(
            path, table, delimiter=",", header="t,deficit", comments="", fmt="%.17g"
        )


def _restart_positions(s: np.ndarray, T: float, t_grid, n_restarts: int) -> np.ndarray:
    """Grid positions to restart from; every window [t, t+T] must fit."""
    limit = s[-1] - T
    if t_grid is not None:
        ts = np.asarray(t_grid, dtype=np.float64)
        if np.any(ts + T > s[-1] + 1e-12) or np.any(ts < s[0]):
            raise ValueError("every t in t_grid must satisfy s0 <= t and t+T <= s_end")
        pos = np.searchsorted(s, ts, side="right") - 1  # snap to grid point <= t
    else:
        last = int(np.searchsorted(s, limit, side="right") - 1)
        if last < 1:
            raise ValueError("window T leaves no admissible restart point")
        pos = np.geomspace(1, last, min(n_restarts, last)).astype(np.int64)
    pos = np.unique(np.clip(pos, 0, len(s) - 1))
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
    integrating its restart alone gives.  A restart is excluded when no grid
    point falls in its window or the field fails on one of its rows; a
    failing stacked segment is redone restart by restart to find which.
    """
    # restart i compares grid points i+1 .. end-1
    end = np.searchsorted(s, s[pos] + T + 1e-12, side="right")
    n_seg = end - pos - 1
    excluded = n_seg < 1
    cur = _kept_rows(X[:, pos, :], ok).transpose(1, 0, 2).copy()  # (restarts, B, d)
    _, B, d = cur.shape
    if normalization == "scale":
        denom = 1.0 + np.linalg.norm(cur, axis=2)
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
        t0 = s[j - 1] - s[pos[act]]
        dt = s[j] - s[j - 1]
        try:
            x = _rk4_segment(
                f, cur[act].reshape(-1, d), np.repeat(t0, B), np.repeat(dt, B), h
            ).reshape(len(act), B, d)
        except DomainExitError:
            x = np.empty((len(act), B, d))
            for a, r in enumerate(act):
                try:
                    x[a] = _rk4_segment(f, cur[r], float(t0[a]), float(dt[a]), h)
                except DomainExitError:
                    excluded[r] = True
            done = ~excluded[act]
            act, j, x = act[done], j[done], x[done]
        cur[act] = x
        at_j = _kept_rows(X[:, j, :], ok).transpose(1, 0, 2)
        diff = np.linalg.norm(at_j - x, axis=2) / denom[act]
        diff = np.where(np.isfinite(diff), diff, np.inf)
        best[act] = np.maximum(best[act], diff)
    deficits = np.where(excluded[:, None], np.inf, best).T
    return deficits, excluded


def _tail_count(R: int, tail_fraction: float) -> int:
    """Points in the tail fit of R: the last ``tail_fraction`` of them, at
    least 2, and none when R < 2."""
    return 0 if R < 2 else min(R, max(2, int(np.ceil(R * tail_fraction))))


def _tail_slopes(ts: np.ndarray, ys: np.ndarray, tail_fraction: float = 1.0 / 3.0):
    """Least-squares slope of log(ys) vs ts over the tail third, per row.

    Rows with any non-finite log value in the tail get slope NaN.
    Returns (slopes, n_fit).  Builds one (rows, n_fit) array and works in
    it in place, so ys may be large.  That array is C-ordered whatever the
    layout of ys: the mean and the product over it round by layout.
    """
    R = len(ts)
    k = _tail_count(R, tail_fraction)
    if k == 0:
        return np.full(ys.shape[0], np.nan), 0
    t = ts[R - k :]
    L = np.maximum(ys[:, R - k :], _DISTANCE_FLOOR, order="C")
    with np.errstate(divide="ignore"):
        np.log(L, out=L)
    tc = t - t.mean()
    denom = float(np.sum(tc**2))
    good = np.all(np.isfinite(L), axis=1)
    slopes = np.full(ys.shape[0], np.nan)
    if denom > 0 and good.any():
        Lg = L if good.all() else L[good]
        Lg -= Lg.mean(axis=1, keepdims=True)
        slopes[good] = Lg @ tc / denom
    return slopes, k


def apt_deficit(
    path: TimeChangedPath,
    f: Callable,
    T: float,
    t_grid=None,
    h: float = 5e-3,
    normalization: str = "scale",
    n_restarts: int = 48,
    tail_fraction: float = 1.0 / 3.0,
) -> AptResult:
    """Shadowing deficit of a time-changed path against its flow.

    For each restart time t (grid states only), integrates the flow from
    ``X^m_t`` and takes the sup of the deviation at all grid points within
    ``[t, t+T]``; reports deficits and the least-squares slope of their logs
    over the tail third of the restart grid.  Restarts whose flow leaves the
    field's domain are recorded as +inf and excluded from the fit.
    """
    if normalization not in ("scale", "absolute"):
        raise ValueError(f"unknown normalization {normalization!r}")
    s = path.s_grid
    X = path.states[None, :, :]
    pos = _restart_positions(s, T, t_grid, n_restarts)
    deficits, _ = _batch_deficits(s, X, f, T, pos, h, normalization)
    row = deficits[0]
    keep = np.isfinite(row)
    slopes, n_fit = _tail_slopes(s[pos[keep]], row[None, keep], tail_fraction)
    return AptResult(
        t_values=s[pos],
        deficits=row,
        rate=float(slopes[0]),
        n_fit=n_fit,
        n_excluded=int((~keep).sum()),
        normalization=normalization,
        T=float(T),
    )


# ---------------------------------------------------------------------------
# manifold attraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ManifoldRateResult:
    """Distances to the invariant set along the clock and the tail slope."""

    t_values: np.ndarray
    distances: np.ndarray
    slope: float
    n_fit: int
    clamped: bool

    def to_csv(self, path) -> None:
        with np.errstate(divide="ignore"):
            logs = np.log(np.maximum(self.distances, _DISTANCE_FLOOR))
        table = np.column_stack([self.t_values, self.distances, logs])
        np.savetxt(
            path,
            table,
            delimiter=",",
            header="t,distance,log_distance",
            comments="",
            fmt="%.17g",
        )


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
        return np.linalg.norm(y_minus, axis=-1)
    if K is None:
        raise ValueError("need either K or a split")
    return K.distance(states)


def manifold_rate(
    path: TimeChangedPath,
    K: Optional[ManifoldK] = None,
    split: Optional[TrapSplit] = None,
    x_star=None,
    tail_fraction: float = 1.0 / 3.0,
) -> ManifoldRateResult:
    """Tail slope of ``log d(X^m_t, K)`` along the clock.

    A path identically on K reports slope -inf; distances below the floating
    floor are clamped (flagged) and count as attained decay.
    """
    dist = _distances_to_K(path.states, K, split, x_star)
    if np.all(dist == 0.0):
        return ManifoldRateResult(
            t_values=path.s_grid,
            distances=dist,
            slope=float("-inf"),
            n_fit=0,
            clamped=False,
        )
    clamped = bool(np.any(dist < _DISTANCE_FLOOR))
    slopes, n_fit = _tail_slopes(path.s_grid, dist[None, :], tail_fraction)
    return ManifoldRateResult(
        t_values=path.s_grid,
        distances=dist,
        slope=float(slopes[0]),
        n_fit=n_fit,
        clamped=clamped,
    )


# ---------------------------------------------------------------------------
# ensemble variants (vectorized across runs)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EnsembleRates:
    """Per-run diagnostic rates and their median (NaN rates excluded)."""

    rates: np.ndarray
    t_values: np.ndarray
    n_excluded: int

    @property
    def median(self) -> float:
        good = self.rates[np.isfinite(self.rates)]
        return float(np.median(good)) if len(good) else float("nan")


def _ensemble_paths(summary: EnsembleSummary, schedule: Schedule):
    """(s, X, ok): the clock at the capture times, the state capture itself
    (every run, read in place, never copied whole) and the mask of the runs
    that did not blow up."""
    if summary.captured_states is None or not len(summary.capture_times):
        raise ValueError("ensemble has no captured states for diagnostics")
    s = np.asarray(schedule.partial_drift_sum(summary.capture_times.astype(np.float64)))
    if np.any(np.diff(s) <= 0):
        raise DegenerateTimeChangeError("capture times give a flat clock segment")
    return s, summary.captured_states, summary.ok


def ensemble_apt_deficit(
    summary: EnsembleSummary,
    schedule: Schedule,
    f: Callable,
    T: float,
    h: float = 5e-3,
    normalization: str = "scale",
    n_restarts: int = 48,
    tail_fraction: float = 1.0 / 3.0,
) -> EnsembleRates:
    """Per-run shadow-deficit tail rates over the captured state grid."""
    s, X, ok = _ensemble_paths(summary, schedule)
    pos = _restart_positions(s, T, None, n_restarts)
    deficits, hard = _batch_deficits(s, X, f, T, pos, h, normalization, ok)
    keep = ~hard
    slopes, _ = _tail_slopes(s[pos[keep]], deficits[:, keep], tail_fraction)
    return EnsembleRates(
        rates=slopes, t_values=s[pos], n_excluded=int(hard.sum())
    )


def ensemble_manifold_rate(
    summary: EnsembleSummary,
    schedule: Schedule,
    K: Optional[ManifoldK] = None,
    split: Optional[TrapSplit] = None,
    x_star=None,
    tail_fraction: float = 1.0 / 3.0,
) -> EnsembleRates:
    """Per-run manifold-attraction tail slopes over the captured state grid.

    The distances are computed ``_RUN_CHUNK`` runs at a time, and only the
    tail the fit reads is kept.  Each run's distances are bitwise what the
    whole capture at once gives: the matmul makes one product per run.
    """
    s, X, ok = _ensemble_paths(summary, schedule)
    R = len(s)
    k = _tail_count(R, tail_fraction)
    tail = np.empty((int(ok.sum()), k))
    j = 0
    for r in range(0, len(X), _RUN_CHUNK):
        rows = slice(r, r + _RUN_CHUNK)
        chunk = _kept_rows(X[rows], ok[rows])
        tail[j : j + len(chunk)] = _distances_to_K(chunk, K, split, x_star)[:, R - k :]
        j += len(chunk)
    slopes, _ = _tail_slopes(s[R - k :], tail, 1.0)
    return EnsembleRates(rates=slopes, t_values=s, n_excluded=0)
