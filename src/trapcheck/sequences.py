"""Step-size schedules and the derived rate constants.

A :class:`Schedule` holds two non-negative deterministic sequences indexed from
1: the drift steps ``gamma_n`` and the noise scales ``c_n``.  Three derived
quantities drive every diagnostic downstream:

* ``alpha(t)`` — the root of the tail sum of squared noise scales,
  ``sqrt(sum_{n > t} c_n^2)``,
* ``m(t)`` — the drift timescale ``sum_{n <= t} gamma_n``,
* ``lambda_hat`` — the decay rate of ``log alpha(t)`` measured against ``m(t)``.

Tagged closed forms (power / geometric / constant) get exact analytic tails;
untagged custom sequences fall back to truncated sums up to the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateScheduleError,
    DivergentTailError,
    InsufficientHorizonError,
)

__all__ = [
    "SequenceSpec",
    "Schedule",
    "RateConstants",
    "rate_constants",
]

_KINDS = ("power", "geometric", "const", "custom")

#: Points of the log-spaced grid on which :func:`rate_constants` evaluates
#: ``alpha`` and ``m`` (fewer when integer times repeat).
RATE_GRID_POINTS = 512

#: The Euler-Maclaurin coefficients ``(2k)! / B_2k`` of cephes' Hurwitz zeta.
_ZETA_A = (
    12.0,
    -720.0,
    30240.0,
    -1209600.0,
    47900160.0,
    -1.8924375803183791606e9,
    7.47242496e10,
    -2.950130727918164224e12,
    1.1646782814350067249e14,
    -4.5979787224074726105e15,
    1.8152105401943546773e17,
    -7.1661652561756670113e18,
)

#: cephes' machine epsilon, ``2**-53``.
_MACHEP = 1.11022302462515654042e-16


def _unique(a) -> np.ndarray:
    """The sorted distinct values of ``a``, as ``np.unique`` gives them, from
    a sort and a neighbour comparison: ``np.unique`` imports ``numpy.ma``."""
    a = np.sort(a, axis=None)
    keep = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _hurwitz_zeta(x: float, q: float) -> float:
    """``sum_{n >= 0} (n + q)**-x`` for ``x > 1`` and ``q > 0``, by the
    algorithm of cephes' ``zeta`` (which ``scipy.special.zeta`` runs), one
    float operation for each of its own, so the bits are scipy's: a direct
    sum of at least ten terms, on until ``n + q`` passes 9, that stops early
    once a term falls below ``_MACHEP`` of the sum; then the Euler-Maclaurin
    correction.  For ``q > 1e8``, the first two terms of the asymptotic
    expansion."""
    if q > 1e8:
        return (1 / (x - 1) + 1 / (2 * q)) * q ** (1 - x)
    s = q**-x
    a, b, i = q, 0.0, 0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a**-x
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a, k = 1.0, 0.0
    for coef in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / coef
        s = s + t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


@dataclass(frozen=True)
class SequenceSpec:
    """One tagged scalar sequence ``a_n`` for integer ``n >= 1``.

    kind:
        ``"power"``     a_n = scale * (n + offset)**(-exponent)
        ``"geometric"`` a_n = scale * ratio**n          (0 < ratio)
        ``"const"``     a_n = value
        ``"custom"``    a_n = values[n-1]               (no closed form)
    """

    kind: str
    exponent: float = 1.0
    ratio: float = 0.5
    scale: float = 1.0
    value: float = 0.0
    offset: float = 0.0
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        if self.kind == "power":
            if self.scale < 0 or self.offset < 0:
                raise ValueError("power sequence needs scale >= 0 and offset >= 0")
        elif self.kind == "geometric":
            if self.ratio <= 0 or self.scale < 0:
                raise ValueError("geometric sequence needs ratio > 0 and scale >= 0")
        elif self.kind == "const":
            if self.value < 0:
                raise ValueError("const sequence must be non-negative")
        elif self.kind == "custom":
            if self.values is None or len(self.values) == 0:
                raise ValueError("custom sequence needs a non-empty values tuple")
            if min(self.values) < 0:
                raise ValueError("custom sequence must be non-negative")

    def materialize(self, horizon: int) -> np.ndarray:
        """Values ``a_1 .. a_horizon`` as a float array of length horizon+1.

        Index 0 is an unused zero slot so that ``arr[n]`` is ``a_n``.
        """
        n = np.arange(horizon + 1, dtype=np.float64)
        out = np.zeros(horizon + 1)
        if self.kind == "power":
            out[1:] = self.scale * (n[1:] + self.offset) ** (-self.exponent)
        elif self.kind == "geometric":
            out[1:] = self.scale * self.ratio ** n[1:]
        elif self.kind == "const":
            out[1:] = self.value
        else:
            vals = np.asarray(self.values, dtype=np.float64)
            if len(vals) < horizon:
                raise InsufficientHorizonError(
                    f"custom sequence has {len(vals)} entries, horizon is {horizon}"
                )
            out[1:] = vals[:horizon]
        return out

    def tail_sum_of_squares(self, t: float) -> float:
        """Exact ``sum_{n > t} a_n^2`` for tagged kinds.

        Raises
        ------
        DivergentTailError
            If the tail series diverges for this tag.
        NotImplementedError
            For ``custom`` (handled by :meth:`Schedule.tail_l2` via truncation).
        """
        n_min = int(np.floor(t)) + 1 if t >= 0 else 1
        if self.kind == "power":
            if 2.0 * self.exponent <= 1.0:
                raise DivergentTailError(
                    f"tail of squares diverges for power exponent {self.exponent} <= 1/2"
                )
            return float(self.scale**2 * _hurwitz_zeta(2.0 * self.exponent, n_min + self.offset))
        if self.kind == "geometric":
            if self.ratio >= 1.0:
                raise DivergentTailError(
                    f"tail of squares diverges for geometric ratio {self.ratio} >= 1"
                )
            r2 = self.ratio**2
            return float(self.scale**2 * r2**n_min / (1.0 - r2))
        if self.kind == "const":
            if self.value == 0.0:
                return 0.0
            raise DivergentTailError("tail of squares diverges for a nonzero constant")
        raise NotImplementedError("custom sequences have no closed-form tail")


@dataclass(frozen=True)
class Schedule:
    """Drift steps ``gamma_n`` and noise scales ``c_n`` up to a horizon.

    The values and their prefix sums are built on first read and memoized.
    """

    gamma: SequenceSpec
    c: SequenceSpec
    horizon: int

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")

    # -- materialized arrays (index 0 unused) --------------------------------

    @cached_property
    def gamma_values(self) -> np.ndarray:
        return self.gamma.materialize(self.horizon)

    @cached_property
    def c_values(self) -> np.ndarray:
        return self.c.materialize(self.horizon)

    @cached_property
    def _gamma_prefix(self) -> np.ndarray:
        return np.cumsum(self.gamma_values)

    @cached_property
    def _c_sq_prefix(self) -> np.ndarray:
        return np.cumsum(self.c_values**2)

    # -- derived quantities ---------------------------------------------------

    def partial_drift_sum(self, t) -> float | np.ndarray:
        """``m(t) = sum_{1 <= k <= floor(t)} gamma_k``; 0 for ``t < 1``."""
        t_arr = np.asarray(t, dtype=np.float64)
        idx = np.floor(t_arr).astype(np.int64)
        if np.any(idx > self.horizon):
            raise InsufficientHorizonError(
                f"drift sum queried at t={np.max(t_arr)} beyond horizon {self.horizon}"
            )
        idx = np.clip(idx, 0, self.horizon)
        out = self._gamma_prefix[idx]
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    def tail_l2(self, t) -> float | np.ndarray:
        """``alpha(t) = sqrt(sum_{n > t} c_n^2)``.

        Tagged kinds use the exact analytic tail (valid for any ``t >= 0``,
        including beyond the horizon).  Custom sequences use the truncated sum
        up to the horizon and raise beyond it.
        """
        scalar = np.isscalar(t) or np.asarray(t).ndim == 0
        t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
        if np.any(t_arr < 0):
            raise ValueError("tail_l2 requires t >= 0")
        if self.c.kind != "custom":
            out = np.array([self.c.tail_sum_of_squares(tv) for tv in t_arr])
        else:
            if np.any(t_arr >= self.horizon):
                raise InsufficientHorizonError(
                    "custom sequence tail is unknown beyond the horizon "
                    f"(t={np.max(t_arr)}, horizon={self.horizon})"
                )
            idx = np.floor(t_arr).astype(np.int64)
            total = self._c_sq_prefix[self.horizon]
            out = total - self._c_sq_prefix[idx]
        out = np.sqrt(np.maximum(out, 0.0))
        return float(out[0]) if scalar else out


@dataclass(frozen=True)
class RateConstants:
    """Window estimates of the noise-decay rate against the drift timescale.

    ``lambda_hat`` is the least-squares slope of ``log alpha(t)`` against
    ``m(t)`` over the window — the stable estimator of the limiting ratio
    (additive constants in both logs cancel).  ``ratio_sup`` / ``ratio_inf``
    are the max/min of the pointwise ratio ``log alpha(t) / m(t)`` over the
    window, the finite-window stand-ins for the limsup / liminf.  Conventions
    when ``m(t) = 0`` on the whole window: ratio 1 if ``alpha = 1`` (0/0),
    ``-inf`` if ``alpha < 1``, ``+inf`` if ``alpha > 1``.
    """

    window: tuple[float, float]
    lambda_hat: float
    ratio_sup: float
    ratio_inf: float
    n_points: int
    #: slope refits on the first/second halves of the window (NaN when the
    #: half has no usable variation).  A tail slope much smaller in magnitude
    #: than the head slope exposes a rate drifting to zero (log alpha concave
    #: in m), which a single windowed slope cannot distinguish from a genuine
    #: negative limit.
    lambda_hat_head: float = float("nan")
    lambda_hat_tail: float = float("nan")

    @property
    def liminf_proxy(self) -> float:
        """Conservative stand-in for the liminf of the ratio: the smaller of
        the slope estimate and the windowed pointwise minimum."""
        return min(self.lambda_hat, self.ratio_inf)

    def to_dict(self) -> dict:
        return {
            "window": [float(self.window[0]), float(self.window[1])],
            "lambda_hat": float(self.lambda_hat),
            "ratio_sup": float(self.ratio_sup),
            "ratio_inf": float(self.ratio_inf),
            "liminf_proxy": float(self.liminf_proxy),
            "n_points": int(self.n_points),
            "lambda_hat_head": float(self.lambda_hat_head),
            "lambda_hat_tail": float(self.lambda_hat_tail),
        }


def _convention_ratio(log_alpha: float) -> float:
    """Value of ``log(alpha)/m`` when ``m == 0``: 1 for 0/0, signed inf else."""
    if abs(log_alpha) <= 1e-12:
        return 1.0
    return float("inf") if log_alpha > 0 else float("-inf")


def _slope(m: np.ndarray, log_a: np.ndarray) -> float:
    """Least-squares slope of the finite ``log_a`` against ``m``; NaN when
    fewer than two points are finite or their ``m`` does not vary."""
    ok = np.isfinite(log_a)
    m, log_a = m[ok], log_a[ok]
    # polyfit scales m by its norm: where every square of m underflows (m
    # within about 1e-160 of 0) that is 0/0, and the fit fails in LAPACK
    if len(m) < 2 or m.max() - m.min() <= 0 or not np.sum(m**2) > 0:
        return float("nan")
    return float(np.polyfit(m, log_a, 1)[0])


def rate_constants(schedule: Schedule, window: tuple[float, float]) -> RateConstants:
    """Estimate the rate constants of a schedule over an integer window.

    Parameters
    ----------
    schedule : Schedule
    window : (lo, hi)
        Inclusive range of integer times; ``hi`` must be within the horizon.

    Raises
    ------
    DegenerateScheduleError
        If ``alpha`` vanishes identically on the window (no noise left).
    """
    lo, hi = float(window[0]), float(window[1])
    if not (1 <= lo < hi):
        raise ValueError(f"window must satisfy 1 <= lo < hi, got {window}")
    if hi > schedule.horizon:
        raise InsufficientHorizonError(
            f"window end {hi} beyond schedule horizon {schedule.horizon}"
        )
    ts = _unique(np.geomspace(lo, hi, RATE_GRID_POINTS).astype(np.int64)).astype(np.float64)
    alphas = np.asarray(schedule.tail_l2(ts))
    ms = np.asarray(schedule.partial_drift_sum(ts))

    if np.all(alphas == 0.0):
        raise DegenerateScheduleError("alpha vanishes on the whole window")

    with np.errstate(divide="ignore"):
        log_a = np.log(alphas)

    ratios = np.empty_like(log_a)
    pos = ms > 0
    # a drift sum within a few subnormals of 0 overflows the ratio to the
    # signed infinity that _convention_ratio gives at m == 0
    with np.errstate(over="ignore"):
        ratios[pos] = log_a[pos] / ms[pos]
    for i in np.nonzero(~pos)[0]:
        ratios[i] = _convention_ratio(log_a[i])

    lam = _slope(ms, log_a)
    if np.isnan(lam):
        # no usable drift variation: fall back to the convention at the window end
        lam = _convention_ratio(log_a[-1]) if ms[-1] == 0 else float(ratios[-1])
        lam_head = lam_tail = float("nan")
    else:
        half = len(ms) // 2
        lam_head = _slope(ms[:half], log_a[:half])
        lam_tail = _slope(ms[half:], log_a[half:])

    return RateConstants(
        window=(lo, hi),
        lambda_hat=lam,
        ratio_sup=float(np.max(ratios)),
        ratio_inf=float(np.min(ratios)),
        n_points=len(ts),
        lambda_hat_head=lam_head,
        lambda_hat_tail=lam_tail,
    )
