"""Numeric checkers for the convergence-exclusion conditions.

Each checker inspects finite data (a trajectory or an ensemble) and returns a
:class:`ConditionResult` with verdict ``pass``, ``fail``, or ``inconclusive``.
Finite samples cannot prove an asymptotic statement, so ``pass`` means "no
violation witnessed under the documented finite-sample rule" and
``inconclusive`` is a first-class outcome (too little data), distinct from a
witnessed ``fail``.

Conditional expectations ``E[... | past]`` are approximated by cross-run
empirical means at fixed step index: runs are exchangeable and the built-in
models' noise laws depend on the past only through recorded state, so the
cross-sectional mean at fixed n is the natural estimator.

The report names which theorem's condition set was checked via an opaque
``theorem_id`` token (part of the reporting contract).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .engine import EnsembleSummary, Trajectory
from .errors import InsufficientRecordsError
from .sequences import RateConstants, Schedule
from .spectral import AdaptedNorm, TrapSplit

__all__ = [
    "ConditionResult",
    "HypothesisReport",
    "THEOREM_IDS",
    "make_constants",
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

#: Minimum tail-half / head-half slope ratio for ``lambda_hat < 0`` to count
#: as a genuine negative limit in the rate condition (see check_rate_condition).
_LAMBDA_TREND_RATIO = 0.8

#: Minimum ensemble size for cross-run conditional-mean estimates.
MIN_RUNS = 30

#: Captured steps the ensemble checkers reduce per pass (a last chunk may
#: hold one more): it bounds their temporaries to a few
#: ``_STEP_CHUNK * n_runs * d`` arrays.  At least 2.
_STEP_CHUNK = 1024


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
        verdicts = [c.verdict for c in self.conditions]
        if "fail" in verdicts:
            return "fail"
        if "inconclusive" in verdicts:
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


def _eps_window(summary: EnsembleSummary, window):
    """(ns, steps): the captured steps inside the window and the slice of
    ``summary.increment_indices`` (and of the eps capture) that holds them."""
    if summary.captured_eps is None:
        raise InsufficientRecordsError("ensemble was run without increment captures")
    ns = summary.increment_indices  # sorted and unique
    lo, hi = (ns[0], ns[-1] + 1) if window is None else (window[0], window[1])
    a, b = np.searchsorted(ns, [lo, hi])
    return ns[a:b], slice(a, b)


def _eps_chunks(summary: EnsembleSummary, steps: slice):
    """The eps capture at ``steps`` and the non-blown runs, ``_STEP_CHUNK``
    steps at a time, each chunk of shape (runs, steps in chunk, d).

    Each chunk is a runs-first view of step-major memory, the layout the
    checkers' reductions were written against (the per-step means over runs
    then reduce along a contiguous axis, and their bits depend on it; every
    step's mean sees the same layout whichever chunk holds it).  The engine
    stores captures that way, so a chunk is a slice, not a copy, unless some
    run blew up; captures held runs-first are copied into it.
    """
    by_step = summary.captured_eps.transpose(1, 0, 2)
    ok = summary.ok if summary.blown_up.any() else None
    j = steps.start
    while j < steps.stop:
        # a lone last step joins the chunk before it: matmul takes another
        # path, with other bits, for a one-step chunk than for a longer one
        end = j + _STEP_CHUNK if steps.stop - j > _STEP_CHUNK + 1 else steps.stop
        chunk = by_step[j:end]
        if ok is not None:
            chunk = np.compress(ok, chunk, axis=1)  # C order: no second copy
        yield np.ascontiguousarray(chunk).transpose(1, 0, 2)
        j = end


def _step_means(summary: EnsembleSummary, steps: slice, *stats):
    """Per function in ``stats``, the cross-run mean of ``stat(eps)`` at each
    captured step of ``steps``: row i of the result is
    ``np.mean(stats[i](eps), axis=0)`` over the window, reduced one chunk of
    steps at a time so no window-sized temporary is built."""
    out = np.empty((len(stats), steps.stop - steps.start))
    j = 0
    for eps in _eps_chunks(summary, steps):
        for row, stat in zip(out, stats):
            row[j : j + eps.shape[1]] = np.mean(stat(eps), axis=0)
        j += eps.shape[1]
    return out


def _window_of(ns, window):
    lo, hi = (int(ns[0]), int(ns[-1]) + 1) if window is None else (int(window[0]), int(window[1]))
    return (ns >= lo) & (ns < hi)


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
    min_runs: int = MIN_RUNS,
) -> ConditionResult:
    """Noise keeps exciting the repulsive directions, with bounded moments.

    Estimates, per captured step n, the cross-run mean of ``||eps_plus_n||^2``
    (``eps_plus`` = repulsive-block coordinates when a split is given, the
    full vector otherwise), sums it over k consecutive steps, and takes the
    window minimum as the liminf proxy; the max cross-run mean of
    ``||eps_n||^a`` is the moment limsup proxy.  Pass needs the liminf proxy
    above the threshold and the moment proxy finite.
    """
    ns, steps = _eps_window(summary, window)
    n_runs = int(summary.ok.sum())
    if n_runs < min_runs:
        return ConditionResult(
            "noise_excitation",
            "inconclusive",
            {"n_runs": n_runs, "reason": "too few runs"},
            threshold,
        )
    # k-windows need k consecutive captured indices
    n_starts = max(len(ns) - k + 1, 0)
    starts = np.flatnonzero(ns[k - 1 : k - 1 + n_starts] == ns[:n_starts] + (k - 1))
    if not len(starts):
        return ConditionResult(
            "noise_excitation",
            "inconclusive",
            {"reason": f"no {k} consecutive captured steps in window"},
            threshold,
        )

    plus = None if split is None else split.P_inv[: split.delta_plus].T
    m2, ma = _step_means(  # per-n means over runs
        summary,
        steps,
        lambda eps: np.sum((eps if plus is None else eps @ plus) ** 2, axis=-1),
        lambda eps: np.sum(eps**2, axis=-1) ** (a / 2.0),
    )
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


def _remainder_series(traj: Trajectory, window):
    """(ns, squared remainder norms, norms) over the window."""
    ns = np.arange(traj.N)
    mask = _window_of(ns, window)
    rem = traj.rem[mask]
    return ns[mask], np.sum(rem**2, axis=-1), np.linalg.norm(rem, axis=-1)


def check_remainder(
    traj: Trajectory,
    mode: str = "square_summable",
    nu: float = 1.0,
    window=None,
    schedule: Optional[Schedule] = None,
    cauchy_ratio: float = 1e-3,
    growth_factor: float = 2.0,
) -> ConditionResult:
    """Remainder smallness along one trajectory (``trapcheck check`` passes
    the kept run 0; ensembles capture no remainders).

    ``square_summable``: the partial sums of ``||r_n||^2`` must have gone
    Cauchy over the window — the second-half increase may be at most
    ``cauchy_ratio`` of the total.  ``split_r``: the rescaled magnitudes
    ``c_n ||r_n|| / gamma_n^(1+nu)`` must stay bounded — the second-half sup
    may exceed the first-half sup by at most ``growth_factor``; ``schedule``
    defaults to the trajectory's own.
    """
    if mode not in ("square_summable", "split_r"):
        raise ValueError(f"unknown mode {mode!r}")
    ns, sq, nrm = _remainder_series(traj, window)
    if len(ns) < 8:
        return ConditionResult(
            f"remainder_{mode}", "inconclusive", {"reason": "window too short"}, None
        )
    if mode == "square_summable":
        partial = np.cumsum(sq)
        total = float(partial[-1])
        if total == 0.0:
            return ConditionResult(
                "remainder_square_summable",
                "pass",
                {"total": 0.0, "tail_ratio": 0.0},
                cauchy_ratio,
            )
        tail = float(partial[-1] - partial[len(ns) // 2])
        ratio = tail / total
        return ConditionResult(
            "remainder_square_summable",
            "pass" if ratio <= cauchy_ratio else "fail",
            {"total": total, "tail_ratio": ratio},
            cauchy_ratio,
        )
    # split_r
    sched = schedule if schedule is not None else traj.schedule
    gam = sched.gamma_values[ns + 1]
    c = sched.c_values[ns + 1]
    s = c * nrm / gam ** (1.0 + nu)
    half = len(ns) // 2
    sup1, sup2 = float(np.max(s[:half])), float(np.max(s[half:]))
    floor = max(sup1, 1e-300)
    return ConditionResult(
        "remainder_split_r",
        "pass" if sup2 <= growth_factor * floor else "fail",
        {"sup_first_half": sup1, "sup_second_half": sup2, "nu": float(nu)},
        growth_factor,
    )


def check_drift_sign(
    traj: Trajectory,
    x_star,
    rho: float,
    mode: str = "nonneg",
    beta: float = 0.0,
    window=None,
    adapted: Optional[AdaptedNorm] = None,
    project: Optional[np.ndarray] = None,
    slack: float = 1e-10,
) -> ConditionResult:
    """Drift points outward (or at least beta-coercively) near the trap.

    Evaluates ``<x - x*, G>`` (mode ``nonneg``) or
    ``<x - x*, G> - beta * ||x - x*||^2`` (mode ``coercive``) at every step
    inside the ball of radius ``rho``, in the adapted inner product when
    one is supplied (Euclidean otherwise).  ``project`` (rows of a linear map)
    restricts both vectors to a subspace first, e.g. the repulsive block.
    """
    if mode not in ("nonneg", "coercive"):
        raise ValueError(f"unknown mode {mode!r}")
    x_star = np.asarray(x_star, dtype=np.float64)
    ns = np.arange(traj.N)
    mask = _window_of(ns, window)
    u = traj.states[ns[mask]] - x_star
    g = traj.g[mask]
    in_ball = np.linalg.norm(u, axis=1) < rho
    if not in_ball.any():
        return ConditionResult(
            f"drift_sign_{mode}", "inconclusive", {"reason": "no samples in ball"}, None
        )
    u, g = u[in_ball], g[in_ball]
    if project is not None:
        u, g = u @ project.T, g @ project.T
    S = adapted.S if adapted is not None else np.eye(u.shape[1])
    ip = np.einsum("ti,ij,tj->t", u, S, g)
    values = ip if mode == "nonneg" else ip - beta * np.einsum("ti,ij,tj->t", u, S, u)
    worst = float(np.min(values))
    return ConditionResult(
        f"drift_sign_{mode}",
        "pass" if worst >= -slack else "fail",
        {"worst_value": worst, "n_samples": int(in_ball.sum()), "beta": float(beta)},
        -slack,
    )


def check_rate_condition(
    rates: RateConstants, split: Union[TrapSplit, float], nu: float
) -> ConditionResult:
    """The noise-decay rate beats the attraction rate by the tangency margin.

    ``beta = max(lambda_hat, mu)``; pass iff ``lambda_hat < 0`` and the liminf
    proxy of ``log alpha / m`` exceeds ``beta * (1 + nu)``.  ``split`` may be a
    TrapSplit or a bare ``mu`` (used when the numeric split at the trap is
    degenerate and the model declares its contraction rate instead).
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    mu = split.mu if isinstance(split, TrapSplit) else float(split)
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
    schedule: Optional[Schedule] = None,
    window=None,
    growth_factor: float = 2.0,
    min_runs: int = MIN_RUNS,
) -> ConditionResult:
    """Higher-moment control of the martingale jumps.

    Since each jump is ``c_n * eps_n`` and the squared tail scale loses
    exactly ``c_n^2`` at step n, the moment condition reduces to
    ``sup_n E[||eps_n||^a]^(2/a)`` being finite; the sup estimate is reported
    as ``k^2``.  A second-half sup exceeding ``growth_factor`` times the
    first-half sup is the finite-sample divergence witness.
    """
    if a <= 2:
        raise ValueError("moment exponent a must exceed 2")
    ns, steps = _eps_window(summary, window)
    if summary.ok.sum() < min_runs:
        return ConditionResult(
            "jump_moments", "inconclusive", {"reason": "too few runs"}, None
        )
    if len(ns) < 8:
        return ConditionResult(
            "jump_moments", "inconclusive", {"reason": "window too short"}, None
        )
    (ma,) = _step_means(summary, steps, lambda eps: np.sum(eps**2, axis=-1) ** (a / 2.0))
    m = ma ** (2.0 / a)
    half = len(ns) // 2
    sup1, sup2 = float(np.max(m[:half])), float(np.max(m[half:]))
    sup = max(sup1, sup2)
    diverging = not np.isfinite(sup) or sup2 > growth_factor * max(sup1, 1e-300)
    return ConditionResult(
        "jump_moments",
        "fail" if diverging else "pass",
        {
            "k": float(np.sqrt(sup)),
            "sup_estimate": sup,
            "sup_first_half": sup1,
            "sup_second_half": sup2,
            "a": float(a),
        },
        growth_factor,
    )


def check_tail_noise_condition(
    summary: EnsembleSummary,
    split: TrapSplit,
    nu: float,
    schedule: Schedule,
    window=None,
    n_points: int = 16,
) -> ConditionResult:
    """Tail sum of rescaled non-repulsive noise is small against alpha(t).

    Computes ``R(t) = sum_(t < n <= hi) c_n^(1+nu) * E||eps_minus_n||^(1+nu)
    / alpha(t)`` on a log grid (the sum truncated at the window end — a
    documented finite-horizon proxy) and passes iff R has not increased over
    the last decade of t.  This finite-sample rule is a convention: the
    asymptotic statement has no canonical finite test.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    ns, steps = _eps_window(summary, window)
    if len(ns) < 16 or np.any(np.diff(ns) != 1):
        return ConditionResult(
            "tail_noise_smallness",
            "inconclusive",
            {"reason": "needs a contiguous window of captured steps"},
            None,
        )
    lo, hi = int(ns[0]), int(ns[-1])
    if hi < 10 * max(lo, 1):
        return ConditionResult(
            "tail_noise_smallness",
            "inconclusive",
            {"reason": "window shorter than one decade"},
            None,
        )
    minus = split.P_inv[split.delta_plus :].T
    (mean_pow,) = _step_means(
        summary, steps, lambda eps: np.sum((eps @ minus) ** 2, axis=-1) ** ((1.0 + nu) / 2.0)
    )
    c = schedule.c_values[ns + 1]
    terms = c ** (1.0 + nu) * mean_pow
    suffix = np.concatenate([np.cumsum(terms[::-1])[::-1][1:], [0.0]])
    ts = np.unique(np.geomspace(max(hi // 10, lo + 1), hi - 1, n_points).astype(int))
    alphas = np.asarray(schedule.tail_l2(ts.astype(float)))
    ratios = suffix[ts - lo] / alphas
    first, last = float(ratios[0]), float(ratios[-1])
    return ConditionResult(
        "tail_noise_smallness",
        "pass" if last <= first else "fail",
        {"ratio_decade_ago": first, "ratio_end": last, "nu": float(nu)},
        None,
    )
