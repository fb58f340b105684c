"""Numeric checkers for the convergence-exclusion conditions.

Each checker inspects finite data (a trajectory or an ensemble) and returns a
:class:`ConditionResult` with verdict ``pass``, ``fail``, or ``inconclusive``.
Finite samples cannot prove an asymptotic statement, so ``pass`` means "no
violation witnessed under the documented finite-sample rule" and
``inconclusive`` is a first-class outcome (too little data), distinct from a
witnessed ``fail``.  Each rule's threshold is one named module constant
(``MIN_RUNS``, ``CAUCHY_RATIO``, ...); the README's check table lists them
with the fields each check takes.

Norms over coordinates are left folds over the coordinates from +0.0
(``models._sq_norms``): below 8 coordinates they are bitwise numpy's
``np.sum(axis=-1)`` and ``np.linalg.norm``; from 8 on numpy sums pairwise,
so there the fold's last bits differ from theirs.

Conditional expectations ``E[... | past]`` are approximated by cross-run
empirical means at fixed step index: runs are exchangeable and the built-in
models' noise laws depend on the past only through recorded state, so the
cross-sectional mean at fixed n is the natural estimator.

The report names which theorem's condition set was checked via an opaque
``theorem_id`` token (part of the reporting contract).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .engine import EnsembleSummary, Trajectory
from .errors import InsufficientRecordsError
from .models import _sq_norms
from .sequences import RateConstants, _unique
from .spectral import TrapSplit, adapted_inner_product

__all__ = [
    "ConditionResult",
    "HypothesisReport",
    "THEOREM_IDS",
    "make_constants",
    "projection",
    "excitation_statistics",
    "jump_statistics",
    "tail_statistics",
    "check_noise_excitation",
    "check_remainder",
    "check_drift_sign",
    "check_rate_condition",
    "check_jump_moments",
    "check_tail_noise_condition",
]

THEOREM_IDS = ("th2n", "th22n", "th3bd", "th4d_i", "th4d_ii", "th5d")

#: Default absolute floor for "bounded below away from zero" estimates.
DEFAULT_EXCITATION_THRESHOLD = 1e-4

# The checkers' fixed finite-sample rules.

#: Minimum ensemble size for cross-run conditional-mean estimates.
MIN_RUNS = 30

#: Fewest steps a verdict over steps rests on: the window's steps of run 0
#: (remainder), its captured steps (jump moments) or the in-ball steps (drift sign).
MIN_SAMPLES = 8

#: Largest share of the window's sum of ``||r_n||^2`` that its second half may add.
CAUCHY_RATIO = 1e-3

#: Largest second-half / first-half sup ratio that counts as bounded.
GROWTH_FACTOR = 2.0

#: How far below 0 the drift sign's worst inner product may lie (rounding).
DRIFT_SLACK = 1e-10

#: Minimum tail-half / head-half slope ratio for ``lambda_hat < 0`` to count
#: as a genuine negative limit in the rate condition (see check_rate_condition).
_LAMBDA_TREND_RATIO = 0.8

#: Points of the log grid on which the tail-noise ratio is compared.
TAIL_GRID_POINTS = 16


@dataclass(frozen=True)
class ConditionResult:
    """Outcome of one condition check."""

    name: str
    verdict: str  # pass | fail | inconclusive
    estimates: dict
    threshold: Optional[float] = None

    def __post_init__(self):
        if self.verdict not in ("pass", "fail", "inconclusive"):
            raise ValueError(f"bad verdict {self.verdict!r}")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "threshold": self.threshold,
            "estimates": dict(self.estimates),
        }


def _inconclusive(name: str, reason: str, threshold=None, **estimates) -> ConditionResult:
    """The ``inconclusive`` result of check ``name``: too little data, for
    ``reason``, with the ``estimates`` made before it showed."""
    return ConditionResult(name, "inconclusive", {**estimates, "reason": reason}, threshold)


def make_constants(
    lambda_hat: Optional[float] = None,
    mu: Optional[float] = None,
    nu: Optional[float] = None,
    a: Optional[float] = None,
    excitation_k: Optional[int] = None,
) -> dict:
    """Constants block with ``beta = max(lambda_hat, mu)`` filled in whenever
    both ingredients are finite."""
    beta = None
    if (
        lambda_hat is not None
        and mu is not None
        and np.isfinite(lambda_hat)
        and np.isfinite(mu)
    ):
        beta = max(float(lambda_hat), float(mu))
    return {
        "lambda_hat": None if lambda_hat is None else float(lambda_hat),
        "mu": None if mu is None else float(mu),
        "beta": beta,
        "nu": None if nu is None else float(nu),
        "a": None if a is None else float(a),
        "excitation_k": None if excitation_k is None else int(excitation_k),
    }


@dataclass(frozen=True)
class HypothesisReport:
    """Checked conditions plus the constants they were checked against."""

    theorem_id: str
    conditions: tuple
    constants: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.theorem_id not in THEOREM_IDS:
            raise ValueError(
                f"unknown theorem_id {self.theorem_id!r}; expected one of {THEOREM_IDS}"
            )
        object.__setattr__(self, "conditions", tuple(self.conditions))

    @property
    def verdict(self) -> str:
        """``fail`` if any condition fails, else ``inconclusive`` if one is
        or none was checked, else ``pass``."""
        verdicts = [c.verdict for c in self.conditions]
        if "fail" in verdicts:
            return "fail"
        if "inconclusive" in verdicts or not verdicts:
            return "inconclusive"
        return "pass"

    def to_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "verdict": self.verdict,
            "constants": dict(self.constants),
            "conditions": [c.to_dict() for c in self.conditions],
        }


# ---------------------------------------------------------------------------
# shared extraction helpers
# ---------------------------------------------------------------------------


def _window(ns, window):
    """(ns, steps): the steps of the sorted, unique ``ns`` inside the window
    ``[lo, hi)``, every one without a window, and the slice of ``ns`` they fill."""
    a, b = (0, len(ns)) if window is None else np.searchsorted(ns, window)
    return ns[a:b], slice(a, b)


def _eps_window(summary: EnsembleSummary, window):
    """:func:`_window` of the captured increment steps."""
    if summary.noise_means is None:
        raise InsufficientRecordsError("ensemble was run without increment captures")
    return _window(summary.increment_indices, window)


def _too_few_runs(summary: EnsembleSummary, steps: slice, name: str, threshold=None):
    """Check ``name``'s ``inconclusive`` result, with ``n_runs``, if fewer
    than ``MIN_RUNS`` runs count at some captured step of ``steps`` (a run
    that blew up at step b counts at the steps before b); else None."""
    n_runs = int(np.min(summary.noise_counts[steps], initial=summary.n_runs))
    if n_runs < MIN_RUNS:
        return _inconclusive(name, "too few runs", threshold, n_runs=n_runs)


def _repulsive(split: Optional[TrapSplit]) -> Optional[TrapSplit]:
    """``split`` if it has a repulsive block, else None: the checks that
    measure the repulsive directions read full vectors without one."""
    return split if split is not None and split.delta_plus >= 1 else None


def _halves_sup(values):
    """(first-half sup, second-half sup, grew) of ``values``: ``grew`` is the
    finite-sample divergence witness, a second-half sup above
    ``GROWTH_FACTOR`` times the first-half sup (or not comparable to it)."""
    half = len(values) // 2
    sup1, sup2 = float(np.max(values[:half])), float(np.max(values[half:]))
    return sup1, sup2, not sup2 <= GROWTH_FACTOR * max(sup1, 1e-300)


def projection(split: Optional[TrapSplit], block: str):
    """The projection whose squared noise norms a check of ``block`` of
    ``split`` reads, as a statistic of :class:`engine.CaptureSpec` names it:
    for ``"plus"`` the rows ``P_inv[:delta_plus]``, or None (the full vector)
    when the split has no repulsive block; for ``"minus"`` the rows
    ``P_inv[delta_plus:]``."""
    if block == "plus":
        if _repulsive(split) is None:
            return None
        rows = split.P_inv[: split.delta_plus]
    else:
        rows = split.P_inv[split.delta_plus :]
    return tuple(map(tuple, rows.tolist()))


def excitation_statistics(split: Optional[TrapSplit], a: float) -> tuple:
    """The noise statistics (see :class:`engine.CaptureSpec`) that
    :func:`check_noise_excitation` reads: the squared norm on the repulsive
    block, and the full vector's raised to ``a / 2``."""
    return (projection(split, "plus"), None), (None, a / 2.0)


def jump_statistics(a: float) -> tuple:
    """The noise statistic that :func:`check_jump_moments` reads."""
    return ((None, a / 2.0),)


def tail_statistics(split: Optional[TrapSplit], nu: float) -> tuple:
    """The noise statistic that :func:`check_tail_noise_condition` reads:
    none without a split."""
    return () if split is None else ((projection(split, "minus"), (1.0 + nu) / 2.0),)


def _noise_means(summary: EnsembleSummary, steps: slice, *stats) -> list:
    """Per noise statistic in ``stats``, a view of the cross-run means the
    ensemble kept at the captured steps ``steps``."""
    missing = [stat for stat in stats if stat not in summary.statistics]
    if missing:
        key, power = missing[0]
        raise InsufficientRecordsError(
            f"ensemble kept no noise statistic (projection, power) = "
            f"({'full vector' if key is None else key}, {power}); its moment "
            "exponent and nu are fixed when the ensemble is captured"
        )
    rows = [summary.statistics.index(stat) for stat in stats]
    return [summary.noise_means[row, steps] for row in rows]


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------


def check_noise_excitation(
    summary: EnsembleSummary,
    split: Optional[TrapSplit] = None,
    k: int = 1,
    a: float = 4.0,
    window=None,
    threshold: float = DEFAULT_EXCITATION_THRESHOLD,
) -> ConditionResult:
    """Noise keeps exciting the repulsive directions, with bounded moments.

    Estimates, per captured step n, the cross-run mean of ``||eps_plus_n||^2``
    (``eps_plus`` = repulsive-block coordinates when the split has a
    repulsive block, the full vector otherwise), sums it over k consecutive
    steps, and takes the window minimum as the liminf proxy; the max
    cross-run mean of ``||eps_n||^a`` is the moment limsup proxy.  Pass
    needs the liminf proxy above the threshold and the moment proxy finite.
    """
    ns, steps = _eps_window(summary, window)
    if few := _too_few_runs(summary, steps, "noise_excitation", threshold):
        return few
    # k-windows need k consecutive captured indices
    n_starts = max(len(ns) - k + 1, 0)
    starts = np.flatnonzero(ns[k - 1 : k - 1 + n_starts] == ns[:n_starts] + (k - 1))
    if not len(starts):
        return _inconclusive(
            "noise_excitation", f"no {k} consecutive captured steps in window", threshold
        )

    # per-n means over runs
    m2, ma = _noise_means(summary, steps, *excitation_statistics(split, a))
    sums = sliding_window_view(m2, k)[starts].sum(axis=1)  # np.sum(m2[i:i+k]) bits
    liminf_proxy = float(np.min(sums))
    limsup_proxy = float(np.max(ma))
    ok = liminf_proxy > threshold and np.isfinite(limsup_proxy)
    return ConditionResult(
        "noise_excitation",
        "pass" if ok else "fail",
        {
            "excitation_liminf": liminf_proxy,
            "moment_limsup": limsup_proxy,
            "k": int(k),
            "a": float(a),
            "n_windows": len(sums),
        },
        threshold,
    )


def check_remainder(
    traj: Trajectory,
    mode: str = "square_summable",
    nu: float = 1.0,
    window=None,
) -> ConditionResult:
    """Remainder smallness along one trajectory (``trapcheck check`` passes
    the kept run 0; ensembles capture no remainders).

    ``square_summable``: the partial sums of ``||r_n||^2`` must have gone
    Cauchy over the window — the second-half increase may be at most
    ``CAUCHY_RATIO`` of the total.  ``split_r``: the rescaled magnitudes
    ``c_n ||r_n|| / gamma_n^(1+nu)`` must stay bounded — the second-half sup
    may exceed the first-half sup by at most ``GROWTH_FACTOR``; ``gamma_n``
    and ``c_n`` are those of the trajectory's schedule.
    """
    if mode not in ("square_summable", "split_r"):
        raise ValueError(f"unknown mode {mode!r}")
    ns, steps = _window(np.arange(traj.N), window)
    if len(ns) < MIN_SAMPLES:
        return _inconclusive(f"remainder_{mode}", "window too short")
    sq = _sq_norms(traj.rem[steps])
    if mode == "square_summable":
        partial = np.cumsum(sq)
        total = float(partial[-1])
        if total == 0.0:
            return ConditionResult(
                "remainder_square_summable",
                "pass",
                {"total": 0.0, "tail_ratio": 0.0},
                CAUCHY_RATIO,
            )
        tail = float(partial[-1] - partial[len(ns) // 2])
        ratio = tail / total
        return ConditionResult(
            "remainder_square_summable",
            "pass" if ratio <= CAUCHY_RATIO else "fail",
            {"total": total, "tail_ratio": ratio},
            CAUCHY_RATIO,
        )
    # split_r
    gam, c = traj.schedule.gamma_values[ns + 1], traj.schedule.c_values[ns + 1]
    sup1, sup2, grew = _halves_sup(c * np.sqrt(sq) / gam ** (1.0 + nu))
    return ConditionResult(
        "remainder_split_r",
        "fail" if grew else "pass",
        {"sup_first_half": sup1, "sup_second_half": sup2, "nu": float(nu)},
        GROWTH_FACTOR,
    )


def check_drift_sign(
    traj: Trajectory,
    x_star,
    rho: float,
    mode: str = "nonneg",
    beta: float = 0.0,
    window=None,
    split: Optional[TrapSplit] = None,
) -> ConditionResult:
    """Drift points outward (or at least beta-coercively) near the trap.

    Evaluates ``<x - x*, G>`` (mode ``nonneg``) or
    ``<x - x*, G> - beta * ||x - x*||^2`` (mode ``coercive``) at every step
    inside the ball of radius ``rho``.  With a split that has a repulsive
    block, both vectors are first mapped to that block's coordinates
    (``split.P_inv[:delta_plus]``) and measured in the adapted inner product
    of ``split.H_plus``; otherwise the full vectors are measured in the
    Euclidean one.  A step on the trap itself (``x = x*``) carries no sign
    and is left out.  Fewer than ``MIN_SAMPLES`` steps in the ball are
    inconclusive.
    """
    if mode not in ("nonneg", "coercive"):
        raise ValueError(f"unknown mode {mode!r}")
    x_star = np.asarray(x_star, dtype=np.float64)
    _, steps = _window(np.arange(traj.N), window)
    u = traj.states[steps] - x_star
    g = traj.g[steps]
    in_ball = (np.sqrt(_sq_norms(u)) < rho) & u.any(axis=-1)
    if not in_ball.any():
        return _inconclusive(f"drift_sign_{mode}", "no samples in ball")
    u, g = u[in_ball], g[in_ball]
    if _repulsive(split) is None:
        S = np.eye(u.shape[1])
    else:
        project = split.P_inv[: split.delta_plus]
        u, g = u @ project.T, g @ project.T
        S = adapted_inner_product(split.H_plus).S
    ip = np.einsum("ti,ij,tj->t", u, S, g)
    values = ip if mode == "nonneg" else ip - beta * np.einsum("ti,ij,tj->t", u, S, u)
    worst = float(np.min(values))
    estimates = {"worst_value": worst, "n_samples": len(values), "beta": float(beta)}
    if len(values) < MIN_SAMPLES:
        reason = "too few samples in ball"
        return _inconclusive(f"drift_sign_{mode}", reason, -DRIFT_SLACK, **estimates)
    return ConditionResult(
        f"drift_sign_{mode}",
        "pass" if worst >= -DRIFT_SLACK else "fail",
        estimates,
        -DRIFT_SLACK,
    )


def check_rate_condition(rates: RateConstants, mu: Optional[float], nu: float) -> ConditionResult:
    """The noise-decay rate beats the attraction rate by the tangency margin.

    ``beta = max(lambda_hat, mu)``, with ``mu`` the contraction rate at the
    trap; pass iff ``lambda_hat < 0`` and the liminf proxy of
    ``log alpha / m`` exceeds ``beta * (1 + nu)``.  Without a ``mu`` (no
    split is admissible at the trap) the result is inconclusive.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    if mu is None:
        return _inconclusive("rate_condition", "no admissible split at the trap")
    mu = float(mu)
    lam = float(rates.lambda_hat)
    liminf = float(rates.liminf_proxy)
    beta = max(lam, mu)
    target = beta * (1.0 + nu)
    margin = liminf - target
    # A negative windowed slope only certifies a negative limit if log alpha
    # is close to affine in m: when the tail-half slope has lost more than
    # 20% of the head-half magnitude the rate is drifting to zero (e.g.
    # gamma = c = n^(-3/4), where the true limit is 0) and the sign test
    # must not accept it.
    head, tail = float(rates.lambda_hat_head), float(rates.lambda_hat_tail)
    trend_ok = True
    if np.isfinite(head) and np.isfinite(tail) and head < 0.0:
        trend_ok = tail < 0.0 and tail / head >= _LAMBDA_TREND_RATIO
    ok = lam < 0.0 and trend_ok and liminf > target
    return ConditionResult(
        "rate_condition",
        "pass" if ok else "fail",
        {
            "lambda_hat": lam,
            "liminf_proxy": liminf,
            "mu": mu,
            "beta": beta,
            "nu": float(nu),
            "threshold_beta_1nu": target,
            "margin": margin,
            "lambda_trend_ok": trend_ok,
        },
        0.0,
    )


def check_jump_moments(
    summary: EnsembleSummary,
    a: float,
    window=None,
) -> ConditionResult:
    """Higher-moment control of the martingale jumps.

    Since each jump is ``c_n * eps_n`` and the squared tail scale loses
    exactly ``c_n^2`` at step n, the moment condition reduces to
    ``sup_n E[||eps_n||^a]^(2/a)`` being finite; the sup estimate is reported
    as ``k^2``.  A second-half sup exceeding ``GROWTH_FACTOR`` times the
    first-half sup is the finite-sample divergence witness.
    """
    if a <= 2:
        raise ValueError("moment exponent a must exceed 2")
    ns, steps = _eps_window(summary, window)
    if few := _too_few_runs(summary, steps, "jump_moments"):
        return few
    if len(ns) < MIN_SAMPLES:
        return _inconclusive("jump_moments", "window too short")
    (ma,) = _noise_means(summary, steps, *jump_statistics(a))
    sup1, sup2, grew = _halves_sup(ma ** (2.0 / a))
    sup = max(sup1, sup2)
    return ConditionResult(
        "jump_moments",
        "fail" if grew or not np.isfinite(sup) else "pass",
        {
            "k": float(np.sqrt(sup)),
            "sup_estimate": sup,
            "sup_first_half": sup1,
            "sup_second_half": sup2,
            "a": float(a),
        },
        GROWTH_FACTOR,
    )


def check_tail_noise_condition(
    summary: EnsembleSummary,
    split: Optional[TrapSplit],
    nu: float,
    window=None,
) -> ConditionResult:
    """Tail sum of rescaled non-repulsive noise is small against alpha(t).

    Computes ``R(t) = sum_(t < n <= hi) c_n^(1+nu) * E||eps_minus_n||^(1+nu)
    / alpha(t)`` on a log grid (the sum truncated at the window end — a
    documented finite-horizon proxy), with ``c_n`` and ``alpha`` those of the
    ensemble's schedule, and passes iff R has not increased over the last
    decade of t.  This finite-sample rule is a convention: the asymptotic
    statement has no canonical finite test.  Without a ``split`` (none is
    admissible at the trap), below ``MIN_RUNS`` runs at a step of the window,
    or where ``alpha`` is 0 at a grid time, the result is inconclusive.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    if split is None:
        return _inconclusive("tail_noise_smallness", "no admissible split at the trap")
    ns, steps = _eps_window(summary, window)
    if few := _too_few_runs(summary, steps, "tail_noise_smallness"):
        return few
    if len(ns) < 16 or np.any(np.diff(ns) != 1):
        return _inconclusive("tail_noise_smallness", "needs a contiguous window of captured steps")
    lo, hi = int(ns[0]), int(ns[-1])
    if hi + 1 < 10 * max(lo, 1):  # hi + 1: the window's end, past its last step
        return _inconclusive("tail_noise_smallness", "window shorter than one decade")
    ts = _unique(np.geomspace(max(hi // 10, lo + 1), hi - 1, TAIL_GRID_POINTS).astype(int))
    alphas = np.asarray(summary.schedule.tail_l2(ts.astype(float)))
    if not alphas.all():
        return _inconclusive("tail_noise_smallness", "alpha(t) is 0 on the grid")
    (mean_pow,) = _noise_means(summary, steps, *tail_statistics(split, nu))
    terms = summary.schedule.c_values[ns + 1] ** (1.0 + nu) * mean_pow
    suffix = np.concatenate([np.cumsum(terms[::-1])[::-1][1:], [0.0]])
    ratios = suffix[ts - lo] / alphas
    first, last = float(ratios[0]), float(ratios[-1])
    return ConditionResult(
        "tail_noise_smallness",
        "pass" if last <= first else "fail",
        {"ratio_decade_ago": first, "ratio_end": last, "nu": float(nu)},
        None,
    )
