import numpy as np
import pytest
from numpy.testing import assert_allclose

from trapcheck import (
    ConfigError,
    DegenerateScheduleError,
    DivergentTailError,
    InsufficientHorizonError,
    Schedule,
    SequenceSpec,
    rate_constants,
)

EULER_MASCHERONI = 0.5772156649015329


def harmonic(horizon=100_000):
    return Schedule.from_config({"kind": "harmonic", "horizon": horizon})


class TestTailL2:
    def test_geometric_closed_form(self):
        s = Schedule(
            gamma=SequenceSpec("geometric", scale=1.0, ratio=0.5),
            c=SequenceSpec("geometric", scale=1.0, ratio=0.5),
            horizon=100,
        )
        # c_n = scale * ratio^n = 2^-n: alpha(0)^2 = sum_{n>=1} 4^-n = 1/3
        assert_allclose(s.tail_l2(0.0), np.sqrt(1.0 / 3.0), rtol=1e-14)

    def test_harmonic_alpha_at_one(self):
        # alpha(1)^2 = pi^2/6 - 1; frozen value from independent summation
        s = harmonic()
        assert_allclose(s.tail_l2(1.0), np.sqrt(np.pi**2 / 6.0 - 1.0), rtol=1e-12)
        assert s.tail_l2(1.0) == pytest.approx(0.8030778709740586, abs=1e-13)

    def test_power_three_quarters_asymptotics(self):
        s = Schedule.from_config(
            {"kind": "power", "gamma_exp": 0.75, "c_exp": 0.75, "horizon": 10_000}
        )
        t = np.arange(1_000, 10_001, dtype=np.float64)
        ratio = np.asarray(s.tail_l2(t)) / (np.sqrt(2.0) * t**-0.25)
        assert np.max(np.abs(ratio - 1.0)) <= 0.02

    def test_divergent_tail_power(self):
        s = Schedule.from_config(
            {"kind": "power", "gamma_exp": 1.0, "c_exp": 0.5, "horizon": 100}
        )
        with pytest.raises(DivergentTailError):
            s.tail_l2(1.0)

    def test_divergent_tail_nonzero_const(self):
        s = Schedule(
            gamma=SequenceSpec("const", value=0.1),
            c=SequenceSpec("const", value=0.1),
            horizon=100,
        )
        with pytest.raises(DivergentTailError):
            s.tail_l2(0.0)

    def test_zero_const_tail_is_zero(self):
        s = Schedule(
            gamma=SequenceSpec("const", value=1.0),
            c=SequenceSpec("const", value=0.0),
            horizon=100,
        )
        assert s.tail_l2(0.0) == 0.0

    def test_custom_truncated_and_horizon_error(self):
        vals = 1.0 / np.arange(1, 101) ** 2
        s = Schedule(
            gamma=SequenceSpec("custom", values=vals),
            c=SequenceSpec("custom", values=vals),
            horizon=100,
        )
        expect = np.sqrt(np.sum(vals[5:] ** 2))
        assert_allclose(s.tail_l2(5.0), expect, rtol=1e-10)
        with pytest.raises(InsufficientHorizonError):
            s.tail_l2(150.0)

    def test_monotone_decreasing(self):
        s = harmonic(5000)
        t = np.arange(1.0, 4999.0)
        a = np.asarray(s.tail_l2(t))
        assert np.all(np.diff(a) <= 0)

    def test_telescoping_consistency(self):
        s = harmonic(5000)
        c = s.c_values
        for t in (1, 7, 100, 2500):
            lhs = s.tail_l2(t) ** 2 + np.sum(c[1 : t + 1] ** 2)
            assert_allclose(lhs, s.tail_l2(0) ** 2, rtol=1e-12)


class TestPartialDriftSum:
    def test_zero_gamma(self):
        s = Schedule(
            gamma=SequenceSpec("const", value=0.0),
            c=SequenceSpec("power", exponent=1.0),
            horizon=100,
        )
        assert s.partial_drift_sum(50.0) == 0.0

    def test_small_harmonic_sum(self):
        assert_allclose(harmonic(10).partial_drift_sum(4.0), 25.0 / 12.0, rtol=1e-15)

    def test_large_harmonic_matches_log_asymptotics(self):
        s = harmonic(1_000_000)
        m = s.partial_drift_sum(1_000_000.0)
        assert abs(m - (np.log(1e6) + EULER_MASCHERONI)) <= 1e-3

    def test_monotone_increasing(self):
        s = harmonic(5000)
        t = np.arange(1.0, 5000.0)
        m = np.asarray(s.partial_drift_sum(t))
        assert np.all(np.diff(m) >= 0)

    def test_beyond_horizon(self):
        with pytest.raises(InsufficientHorizonError):
            harmonic(100).partial_drift_sum(101.0)


class TestRateConstants:
    def test_harmonic_lambda_hat(self):
        r = rate_constants(harmonic(), (1_000, 100_000))
        assert abs(r.lambda_hat - (-0.5)) <= 0.02
        # the pointwise window ratios straddle the slope from above
        assert -0.5 <= r.ratio_inf <= r.ratio_sup < 0.0
        assert r.liminf_proxy == min(r.lambda_hat, r.ratio_inf)

    def test_zero_gamma_convention_negative(self):
        s = Schedule(
            gamma=SequenceSpec("const", value=0.0),
            c=SequenceSpec("power", exponent=1.0),
            horizon=10_000,
        )
        r = rate_constants(s, (100, 10_000))
        # alpha < 1 on the window and m == 0: a/0 convention with a < 0
        assert r.lambda_hat == float("-inf")

    def test_zero_over_zero_convention(self):
        # single unit spike far beyond the window: alpha == 1 there, m == 0
        c = np.zeros(100)
        c[80] = 1.0
        s = Schedule(
            gamma=SequenceSpec("const", value=0.0),
            c=SequenceSpec("custom", values=c[1:]),
            horizon=99,
        )
        r = rate_constants(s, (5, 40))
        assert r.lambda_hat == 1.0
        assert r.ratio_sup == 1.0 and r.ratio_inf == 1.0

    def test_power_three_quarters_drifts_to_zero(self):
        s = Schedule.from_config(
            {"kind": "power", "gamma_exp": 0.75, "c_exp": 0.75, "horizon": 10_000}
        )
        r = rate_constants(s, (1_000, 10_000))
        assert -0.05 < r.lambda_hat < 0.0
        # the half-window slopes expose the drift toward zero
        assert abs(r.lambda_hat_tail) < 0.8 * abs(r.lambda_hat_head)

    def test_degenerate_all_zero(self):
        s = Schedule(
            gamma=SequenceSpec("power", exponent=1.0),
            c=SequenceSpec("const", value=0.0),
            horizon=1000,
        )
        with pytest.raises(DegenerateScheduleError):
            rate_constants(s, (10, 1000))

    def test_window_beyond_horizon(self):
        with pytest.raises(InsufficientHorizonError):
            rate_constants(harmonic(100), (10, 200))


class TestFromConfig:
    def test_compact_power_form(self):
        s = Schedule.from_config(
            {"kind": "power", "gamma_exp": 1.0, "c_exp": 1.0, "horizon": 50}
        )
        assert_allclose(s.gamma_values[1:4], [1.0, 0.5, 1.0 / 3.0], rtol=1e-15)
        assert_allclose(s.c_values[1:4], [1.0, 0.5, 1.0 / 3.0], rtol=1e-15)

    def test_offset_power(self):
        s = Schedule.from_config(
            {"kind": "power", "gamma_exp": 1.0, "c_exp": 1.0, "offset": 3, "horizon": 50}
        )
        assert_allclose(s.gamma_values[1], 0.25, rtol=1e-15)

    def test_nested_form(self):
        s = Schedule.from_config(
            {
                "gamma": {"kind": "geometric", "scale": 1.0, "ratio": 0.5},
                "c": {"kind": "const", "value": 0.1},
                "horizon": 20,
            }
        )
        assert_allclose(s.gamma_values[2], 0.25, rtol=1e-15)
        assert_allclose(s.c_values[7], 0.1, rtol=1e-15)

    def test_error_paths_are_dotted(self):
        with pytest.raises(ConfigError) as ei:
            Schedule.from_config({"kind": "harmonic"})  # missing horizon
        assert "horizon" in str(ei.value)
        with pytest.raises(ConfigError) as ei:
            Schedule.from_config({"kind": "nope", "horizon": 10})
        assert "kind" in str(ei.value)
        with pytest.raises(ConfigError):
            Schedule.from_config(
                {"gamma": {"kind": "power"}, "horizon": 10}  # missing c block
            )


class TestValidate:
    def test_negative_entries_rejected_at_construction(self):
        with pytest.raises(ValueError):
            SequenceSpec("custom", values=np.array([0.1, -0.1, 0.1]))
