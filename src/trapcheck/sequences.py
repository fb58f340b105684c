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
import scipy  # scipy.special (zeta) loads on first use, not at import

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
            return float(
                self.scale**2 * scipy.special.zeta(2.0 * self.exponent, n_min + self.offset)
            )
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

    Prefix sums are memoized lazily; call :meth:`prime` once before fanning out
    to worker processes if the workers should not each pay the build cost.
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

    def prime(self) -> "Schedule":
        """Force-build all memoized arrays (thread-safety before fan-out)."""
        self.gamma_values, self.c_values, self._gamma_prefix, self._c_sq_prefix
        return self

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

    # -- construction helpers ---------------------------------------------------

    @staticmethod
    def from_config(cfg: dict) -> "Schedule":
        """Build a schedule from a config mapping.

        The compact form drives both sequences from one kind::

            {"kind": "power", "gamma_exp": 1.0, "c_exp": 1.0, "horizon": 100000}

        ``"harmonic"`` is shorthand for power with exponent 1.  An explicit
        form nests full per-sequence specs under ``"gamma"`` and ``"c"``.
        """
        from .errors import ConfigError

        if "horizon" not in cfg:
            raise ConfigError("missing required field", "schedule.horizon")
        horizon = int(cfg["horizon"])
        if "gamma" in cfg or "c" in cfg:
            try:
                g = SequenceSpec(**cfg["gamma"])
                c = SequenceSpec(**cfg["c"])
            except (TypeError, ValueError, KeyError) as exc:
                raise ConfigError(str(exc), "schedule") from exc
            return Schedule(g, c, horizon)
        kind = cfg.get("kind")
        offset = float(cfg.get("offset", 0.0))
        if kind == "harmonic":
            g = SequenceSpec("power", exponent=1.0, offset=offset)
            c = SequenceSpec("power", exponent=1.0, offset=offset)
        elif kind == "power":
            g = SequenceSpec(
                "power",
                exponent=float(cfg.get("gamma_exp", 1.0)),
                scale=float(cfg.get("gamma_scale", 1.0)),
                offset=offset,
            )
            c = SequenceSpec(
                "power",
                exponent=float(cfg.get("c_exp", 1.0)),
                scale=float(cfg.get("c_scale", 1.0)),
                offset=offset,
            )
        elif kind == "geometric":
            g = SequenceSpec("geometric", ratio=float(cfg.get("gamma_ratio", 0.5)))
            c = SequenceSpec("geometric", ratio=float(cfg.get("c_ratio", 0.5)))
        else:
            raise ConfigError(f"unknown schedule kind {kind!r}", "schedule.kind")
        return Schedule(g, c, horizon)


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


def rate_constants(
    schedule: Schedule,
    window: tuple[float, float],
    n_points: int = 512,
) -> RateConstants:
    """Estimate the rate constants of a schedule over an integer window.

    Parameters
    ----------
    schedule : Schedule
    window : (lo, hi)
        Inclusive range of integer times; ``hi`` must be within the horizon.
    n_points : int
        Size of the log-spaced evaluation grid.

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
    ts = np.unique(np.geomspace(lo, hi, n_points).astype(np.int64)).astype(np.float64)
    alphas = np.asarray(schedule.tail_l2(ts))
    ms = np.asarray(schedule.partial_drift_sum(ts))

    if np.all(alphas == 0.0):
        raise DegenerateScheduleError("alpha vanishes on the whole window")

    with np.errstate(divide="ignore"):
        log_a = np.log(alphas)

    ratios = np.empty_like(log_a)
    pos = ms > 0
    ratios[pos] = log_a[pos] / ms[pos]
    for i in np.nonzero(~pos)[0]:
        ratios[i] = _convention_ratio(log_a[i])

    m_spread = ms.max() - ms.min()
    finite = np.isfinite(log_a)
    def _half_slope(sel: slice) -> float:
        m_h, l_h = ms[sel], log_a[sel]
        ok = np.isfinite(l_h)
        if ok.sum() < 2 or m_h[ok].max() - m_h[ok].min() <= 0:
            return float("nan")
        return float(np.polyfit(m_h[ok], l_h[ok], 1)[0])

    if m_spread > 0 and finite.sum() >= 2:
        lam = float(np.polyfit(ms[finite], log_a[finite], 1)[0])
        half = len(ms) // 2
        lam_head = _half_slope(slice(0, half))
        lam_tail = _half_slope(slice(half, len(ms)))
    else:
        # no usable drift variation: fall back to the convention at the window end
        lam = _convention_ratio(log_a[-1]) if ms[-1] == 0 else float(ratios[-1])
        lam_head = lam_tail = float("nan")

    return RateConstants(
        window=(lo, hi),
        lambda_hat=lam,
        ratio_sup=float(np.max(ratios)),
        ratio_inf=float(np.min(ratios)),
        n_points=len(ts),
        lambda_hat_head=lam_head,
        lambda_hat_tail=lam_tail,
    )
