"""Tests for the finite-sample condition checkers."""

import concurrent.futures
import dataclasses
import functools
import json
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose

import trapcheck.engine as engine
import trapcheck.hypotheses as hyp
from trapcheck.cli import main
from trapcheck.engine import CaptureSpec, Trajectory, monte_carlo, run
from trapcheck.errors import InsufficientRecordsError
from trapcheck.hypotheses import (
    THEOREM_IDS,
    ConditionResult,
    HypothesisReport,
    check_drift_sign,
    check_jump_moments,
    check_noise_excitation,
    check_rate_condition,
    check_remainder,
    check_tail_noise_condition,
    make_constants,
)
from trapcheck.models import (
    LinearModel,
    MeanFieldVrrwModel,
    VrrwConfig,
    VrrwWalkModel,
    _sq_norms,
    control_models,
)
from trapcheck.sequences import Schedule, SequenceSpec, rate_constants
from trapcheck.spectral import adapted_inner_product, split_jacobian

from conftest import InProcessPool, rule_means, traced_peak


def harmonic(horizon):
    return Schedule(
        gamma=SequenceSpec("power", exponent=1.0),
        c=SequenceSpec("power", exponent=1.0),
        horizon=horizon,
    )


def every_statistic(split=None, a=4.0, nu=1.0):
    """The noise statistics the checks read at moment exponent ``a`` and
    tail exponent ``nu``: on the full vector and, with a split, on both its
    blocks."""
    stats = hyp.excitation_statistics(None, a) + hyp.jump_statistics(a)
    if split is not None:
        stats += hyp.excitation_statistics(split, a) + hyp.tail_statistics(split, nu)
    return tuple(dict.fromkeys(stats))


def ensemble(model, N=300, n_runs=40, master_seed=7, captures=None, schedule=None, split=None):
    sched = schedule if schedule is not None else harmonic(N)
    caps = captures if captures is not None else CaptureSpec(
        increment_indices=tuple(range(N)), statistics=every_statistic(split)
    )
    x0 = np.full(model.dim, 0.1)
    return monte_carlo(model, sched, x0, N, n_runs, master_seed, captures=caps), sched


class InvNRemainder(LinearModel):
    """Contracting 1-D model with the square-summable remainder r_n = 1/n."""

    def __init__(self):
        super().__init__([[-1.0]], noise_kind="rademacher", id="rem_inv_n")

    def step_parts(self, x, n, raw, aux):
        g, eps, _, aux = super().step_parts(x, n, raw, aux)
        return g, eps, np.full_like(x, 1.0 / (n + 1.0)), aux


class ConstRemainder(LinearModel):
    """Contracting 1-D model with a non-vanishing remainder r_n = 1."""

    def __init__(self):
        super().__init__([[-1.0]], noise_kind="rademacher", id="rem_const")

    def step_parts(self, x, n, raw, aux):
        g, eps, _, aux = super().step_parts(x, n, raw, aux)
        return g, eps, np.ones_like(x), aux


class GrowingJumps(LinearModel):
    """Noise magnitude grows linearly: every fixed jump moment diverges."""

    def __init__(self):
        super().__init__([[-1.0]], noise_kind="rademacher", id="growing_jumps")

    def step_parts(self, x, n, raw, aux):
        g, eps, rem, aux = super().step_parts(x, n, raw, aux)
        return g, ((n + 1) / 50.0) * eps, rem, aux


class GrowingNoise2D(LinearModel):
    """Geometrically growing noise on the split model diag(1, -1)."""

    def __init__(self):
        super().__init__(np.diag([1.0, -1.0]), noise_kind="rademacher", id="growing_2d")

    def step_parts(self, x, n, raw, aux):
        g, eps, rem, aux = super().step_parts(x, n, raw, aux)
        return g, 1.2**n * eps, rem, aux


def manual_circle_trajectory(H, radius=0.5, n_pts=64):
    """Deterministic trajectory whose states sweep a circle."""
    th = np.linspace(0.0, 2.0 * np.pi, n_pts, endpoint=False)
    pts = radius * np.stack([np.cos(th), np.sin(th)], axis=1)
    states = np.vstack([pts, pts[:1]])
    g = pts @ np.asarray(H, dtype=np.float64).T
    z = np.zeros_like(g)
    return Trajectory(
        schedule=harmonic(n_pts),
        states=states,
        g=g,
        eps=z,
        rem=z,
    )


# ---------------------------------------------------------------------------
# noise excitation
# ---------------------------------------------------------------------------


class TestNoiseExcitation:
    def test_rademacher_unit_excitation(self):
        summary, _ = ensemble(LinearModel([[1.0]]))
        res = check_noise_excitation(summary)
        assert res.verdict == "pass"
        # |eps| = 1 for every run and step, so both proxies are exactly 1
        assert res.estimates["excitation_liminf"] == pytest.approx(1.0, abs=1e-12)
        assert res.estimates["moment_limsup"] == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_noise_fails(self):
        summary, _ = ensemble(control_models()["degenerate_noise"])
        res = check_noise_excitation(summary)
        assert res.verdict == "fail"
        assert res.estimates["excitation_liminf"] == 0.0

    def test_stable_only_fails_under_split_but_not_without(self):
        model = control_models()["stable_only_noise"]
        split = split_jacobian(np.diag([1.0, -1.0]))
        summary, _ = ensemble(model, n_runs=32, split=split)
        # repulsive coordinate is never excited
        res_split = check_noise_excitation(summary, split=split)
        assert res_split.verdict == "fail"
        assert res_split.estimates["excitation_liminf"] == 0.0
        # but the full noise vector looks perfectly healthy
        res_full = check_noise_excitation(summary)
        assert res_full.verdict == "pass"

    def test_split_without_repulsive_block_is_no_split(self):
        model = LinearModel(np.diag([-1.0, -2.0]))
        summary, _ = ensemble(model, N=100)
        stable = split_jacobian(model.H)
        assert stable.delta_plus == 0
        res = check_noise_excitation(summary, split=stable)
        assert res.verdict == "pass"
        assert res == check_noise_excitation(summary)

    def test_too_few_runs_inconclusive(self):
        summary, _ = ensemble(LinearModel([[1.0]]), n_runs=10)
        res = check_noise_excitation(summary)
        assert res.verdict == "inconclusive"
        assert res.estimates["n_runs"] == 10

    def test_k_window_sums_consecutive_steps(self):
        summary, _ = ensemble(LinearModel([[1.0]]), N=100)
        res = check_noise_excitation(summary, k=3)
        assert res.verdict == "pass"
        assert res.estimates["excitation_liminf"] == pytest.approx(3.0, abs=1e-12)
        assert res.estimates["n_windows"] == 100 - 2

    def test_k_window_needs_consecutive_captures(self):
        caps = CaptureSpec(
            increment_indices=tuple(range(0, 100, 2)), statistics=every_statistic()
        )
        summary, _ = ensemble(LinearModel([[1.0]]), N=100, captures=caps)
        res = check_noise_excitation(summary, k=2)
        assert res.verdict == "inconclusive"
        assert "consecutive" in res.estimates["reason"]

    def test_threshold_is_respected(self):
        summary, _ = ensemble(LinearModel([[1.0]]), N=100)
        assert check_noise_excitation(summary, threshold=2.0).verdict == "fail"


# ---------------------------------------------------------------------------
# remainder
# ---------------------------------------------------------------------------


class TestRemainder:
    def test_square_summable_passes(self):
        traj = run(InvNRemainder(), harmonic(4000), [0.2], 4000, seed=3)
        res = check_remainder(traj)
        assert res.verdict == "pass"
        assert res.estimates["tail_ratio"] < 1e-3

    def test_zero_remainder_passes_with_zero_total(self):
        traj = run(LinearModel([[-1.0]]), harmonic(500), [0.2], 500, seed=3)
        res = check_remainder(traj)
        assert res.verdict == "pass"
        assert res.estimates["total"] == 0.0

    def test_inv_sqrt_control_fails(self):
        traj = run(control_models()["bad_remainder"], harmonic(4000), [0.2], 4000, seed=3)
        res = check_remainder(traj)
        assert res.verdict == "fail"
        assert res.estimates["tail_ratio"] > 0.01

    def test_short_window_inconclusive(self):
        traj = run(LinearModel([[-1.0]]), harmonic(100), [0.2], 100, seed=3)
        assert check_remainder(traj, window=(10, 15)).verdict == "inconclusive"

    def test_split_r_rescaled_bound_passes(self):
        # c_n ||r_n|| / gamma_n^2 = 1 exactly for r_n = 1/n on the 1/n schedule
        traj = run(InvNRemainder(), harmonic(200), [0.2], 200, seed=3)
        res = check_remainder(traj, mode="split_r", nu=1.0)
        assert res.verdict == "pass"
        assert res.estimates["sup_first_half"] == pytest.approx(1.0, rel=1e-12)
        assert res.estimates["sup_second_half"] == pytest.approx(1.0, rel=1e-12)

    def test_split_r_growing_rescaled_magnitude_fails(self):
        # constant remainder: c ||r|| / gamma^3 = n^2 quadruples between halves
        traj = run(ConstRemainder(), harmonic(200), [0.2], 200, seed=3)
        res = check_remainder(traj, mode="split_r", nu=2.0)
        assert res.verdict == "fail"
        est = res.estimates
        assert est["sup_second_half"] / est["sup_first_half"] == pytest.approx(4.0)

    def test_unknown_mode(self):
        traj = run(LinearModel([[-1.0]]), harmonic(100), [0.2], 100, seed=3)
        with pytest.raises(ValueError, match="mode"):
            check_remainder(traj, mode="bogus")


# ---------------------------------------------------------------------------
# drift sign
# ---------------------------------------------------------------------------


class TestDriftSign:
    def test_outward_drift_passes(self):
        traj = run(LinearModel([[1.0]]), harmonic(400), [0.5], 400, seed=5)
        res = check_drift_sign(traj, [0.0], rho=np.inf)
        assert res.verdict == "pass"
        assert res.estimates["worst_value"] >= 0.0

    def test_inward_drift_fails(self):
        traj = run(LinearModel([[-1.0]]), harmonic(400), [0.5], 400, seed=5)
        assert check_drift_sign(traj, [0.0], rho=np.inf).verdict == "fail"

    def test_empty_ball_inconclusive(self):
        traj = run(LinearModel([[-1.0]]), harmonic(400), [0.5], 400, seed=5)
        res = check_drift_sign(traj, [5.0], rho=1e-12)
        assert res.verdict == "inconclusive"

    def test_adapted_norm_rescues_sheared_drift(self):
        # strongly non-normal repulsive matrix: <u, Hu> < 0 for some u, yet
        # the adapted inner product is coercive on the same points
        H = np.array([[1.0, 5.0], [0.0, 1.2]])
        traj = manual_circle_trajectory(H)
        assert check_drift_sign(traj, [0.0, 0.0], rho=1.0).verdict == "fail"
        adapted = adapted_inner_product(H)
        res = check_drift_sign(
            traj,
            [0.0, 0.0],
            rho=1.0,
            mode="coercive",
            beta=0.9 * adapted.lam,
            split=split_jacobian(H),
        )
        assert res.verdict == "pass"
        assert res.estimates["worst_value"] > 0.0

    def test_projection_onto_repulsive_block(self):
        traj = manual_circle_trajectory(np.diag([1.0, -1.0]))
        # full inner product x1^2 - x2^2 changes sign around the circle
        assert check_drift_sign(traj, [0.0, 0.0], rho=1.0).verdict == "fail"
        split = split_jacobian(np.diag([1.0, -1.0]))
        res = check_drift_sign(traj, [0.0, 0.0], rho=1.0, split=split)
        assert res.verdict == "pass"

    @pytest.mark.parametrize("mode", ["nonneg", "coercive"])
    def test_split_equals_the_adapted_and_projected_form(self, mode):
        # a non-normal repulsive block beside a stable one
        H = np.array([[1.0, 5.0, 0.3], [0.0, 1.2, 0.5], [0.0, 0.0, -1.0]])
        traj = run(LinearModel(H), harmonic(400), [0.05, -0.02, 0.03], 400, seed=5)
        split = split_jacobian(H)
        res = check_drift_sign(traj, np.zeros(3), rho=1.0, mode=mode, beta=0.3, split=split)
        # the adapted form of H_plus on the coordinates P_inv[:delta_plus],
        # as the check once took them apart
        S = adapted_inner_product(split.H_plus).S
        project = split.P_inv[: split.delta_plus]
        u, g = traj.states[:400], traj.g
        in_ball = (np.sqrt(hyp._sq_norms(u)) < 1.0) & u.any(axis=-1)
        u, g = u[in_ball] @ project.T, g[in_ball] @ project.T
        ip = np.einsum("ti,ij,tj->t", u, S, g)
        values = ip if mode == "nonneg" else ip - 0.3 * np.einsum("ti,ij,tj->t", u, S, u)
        assert res.estimates["n_samples"] == int(in_ball.sum()) > 0
        assert res.estimates["worst_value"] == float(np.min(values))

    def test_split_without_repulsive_block_is_no_split(self):
        traj = manual_circle_trajectory(np.diag([1.0, -1.0]))
        stable = split_jacobian(-np.eye(2))
        assert stable.delta_plus == 0
        got = check_drift_sign(traj, [0.0, 0.0], rho=1.0, split=stable)
        assert got == check_drift_sign(traj, [0.0, 0.0], rho=1.0)

    def test_steps_on_the_trap_are_left_out(self):
        # the run starts on the trap, where <x - x*, G> is 0 and shows no sign
        traj = run(LinearModel([[1.0]]), harmonic(400), [0.0], 400, seed=5)
        assert np.count_nonzero(traj.states[:400] == 0.0) == 1
        res = check_drift_sign(traj, [0.0], rho=np.inf)
        assert res.verdict == "pass"
        assert res.estimates["n_samples"] == 399
        assert res.estimates["worst_value"] > 0.0

    def test_one_sample_is_inconclusive_and_keeps_its_estimates(self):
        # the first step (gamma_1 = c_1 = 1) leaves the ball, and only the
        # start lies in it
        H = np.diag([1.0, -1.0])
        traj = run(LinearModel(H), harmonic(2000), [0.0, 0.3], 2000, seed=3)
        res = check_drift_sign(traj, np.zeros(2), rho=1.0, split=split_jacobian(H))
        assert res.verdict == "inconclusive"
        assert res.estimates["reason"] == "too few samples in ball"
        assert res.estimates["n_samples"] == 1
        assert res.estimates["worst_value"] == 0.0
        assert res.estimates["beta"] == 0.0

    def test_window_restricts_samples(self):
        traj = manual_circle_trajectory(np.eye(2))
        res = check_drift_sign(traj, [0.0, 0.0], rho=1.0, window=(0, 10))
        assert res.estimates["n_samples"] == 10

    def test_unknown_mode(self):
        traj = manual_circle_trajectory(np.eye(2))
        with pytest.raises(ValueError, match="mode"):
            check_drift_sign(traj, [0.0, 0.0], rho=1.0, mode="bogus")


# ---------------------------------------------------------------------------
# rate condition
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def harmonic_rates():
    return rate_constants(harmonic(1_000_000), (1_000, 1_000_000))


class TestRateCondition:
    def test_harmonic_against_unit_contraction(self, harmonic_rates):
        res = check_rate_condition(harmonic_rates, -1.0, nu=1.0)
        assert res.verdict == "pass"
        assert res.estimates["beta"] == pytest.approx(-0.5, abs=0.02)
        assert res.estimates["margin"] == pytest.approx(0.5, abs=0.02)
        assert res.estimates["lambda_trend_ok"] is True

    def test_small_tangency_margin(self, harmonic_rates):
        res = check_rate_condition(harmonic_rates, -1.0, nu=0.1)
        assert res.verdict == "pass"
        assert res.estimates["margin"] == pytest.approx(0.05, abs=5e-3)

    def test_positive_mu_dominates_beta(self, harmonic_rates):
        res = check_rate_condition(harmonic_rates, 0.2, nu=1.0)
        assert res.verdict == "fail"
        assert res.estimates["beta"] == pytest.approx(0.2)
        assert res.estimates["margin"] < 0.0

    def test_vanishing_rate_schedule_fails_trend_guard(self):
        s = Schedule(
            gamma=SequenceSpec("power", exponent=0.75),
            c=SequenceSpec("power", exponent=0.75),
            horizon=1_000_000,
        )
        rates = rate_constants(s, (1_000, 1_000_000))
        # the windowed slope is slightly negative but the true limit is 0;
        # the half-window trend comparison must reject the sign test
        assert rates.lambda_hat < 0.0
        res = check_rate_condition(rates, -1.0, nu=1.0)
        assert res.verdict == "fail"
        assert res.estimates["lambda_trend_ok"] is False

    def test_nu_must_be_positive(self, harmonic_rates):
        with pytest.raises(ValueError, match="nu"):
            check_rate_condition(harmonic_rates, -1.0, nu=0.0)


# ---------------------------------------------------------------------------
# jump moments
# ---------------------------------------------------------------------------


class TestJumpMoments:
    def test_rademacher_unit_moment(self):
        summary, _ = ensemble(LinearModel([[1.0]]))
        res = check_jump_moments(summary, a=4.0)
        assert res.verdict == "pass"
        assert res.estimates["k"] == pytest.approx(1.0, abs=1e-12)

    def test_growing_jumps_fail(self):
        summary, _ = ensemble(GrowingJumps())
        res = check_jump_moments(summary, a=4.0)
        assert res.verdict == "fail"
        assert res.estimates["sup_second_half"] > 2.0 * res.estimates["sup_first_half"]

    def test_exponent_must_exceed_two(self):
        summary, _ = ensemble(LinearModel([[1.0]]), N=50)
        with pytest.raises(ValueError, match="exceed 2"):
            check_jump_moments(summary, a=2.0)

    def test_too_few_runs_inconclusive(self):
        summary, _ = ensemble(LinearModel([[1.0]]), N=50, n_runs=10)
        res = check_jump_moments(summary, a=4.0)
        assert res.verdict == "inconclusive"
        assert res.estimates["n_runs"] == 10

    def test_short_window_inconclusive(self):
        caps = CaptureSpec(
            increment_indices=tuple(range(5)), statistics=every_statistic()
        )
        summary, _ = ensemble(LinearModel([[1.0]]), N=50, captures=caps)
        assert check_jump_moments(summary, a=4.0).verdict == "inconclusive"


# ---------------------------------------------------------------------------
# tail noise smallness
# ---------------------------------------------------------------------------


class TestTailNoise:
    def test_bounded_noise_on_harmonic_schedule_passes(self):
        model = LinearModel(np.diag([1.0, -1.0]))
        split = split_jacobian(model.H)
        summary, _ = ensemble(model, N=400, split=split)
        res = check_tail_noise_condition(summary, split, nu=1.0)
        assert res.verdict == "pass"
        assert res.estimates["ratio_end"] < res.estimates["ratio_decade_ago"]

    def test_growing_noise_fails(self):
        model = GrowingNoise2D()
        sched = Schedule(
            gamma=SequenceSpec("power", exponent=1.0),
            c=SequenceSpec("geometric", scale=1.0, ratio=0.9),
            horizon=100,
        )
        split = split_jacobian(model.H)
        summary, _ = ensemble(model, N=100, schedule=sched, split=split)
        res = check_tail_noise_condition(summary, split, nu=1.0)
        assert res.verdict == "fail"
        assert res.estimates["ratio_end"] > res.estimates["ratio_decade_ago"]

    def test_short_decade_inconclusive(self):
        model = LinearModel(np.diag([1.0, -1.0]))
        summary, _ = ensemble(model, N=400)
        split = split_jacobian(model.H)
        res = check_tail_noise_condition(summary, split, nu=1.0, window=(200, 400))
        assert res.verdict == "inconclusive"

    def test_noncontiguous_window_inconclusive(self):
        model = LinearModel(np.diag([1.0, -1.0]))
        caps = CaptureSpec(
            increment_indices=tuple(range(0, 400, 2)), statistics=every_statistic()
        )
        summary, _ = ensemble(model, N=400, captures=caps)
        split = split_jacobian(model.H)
        res = check_tail_noise_condition(summary, split, nu=1.0)
        assert res.verdict == "inconclusive"

    def test_nu_must_be_positive(self):
        model = LinearModel(np.diag([1.0, -1.0]))
        summary, _ = ensemble(model, N=50, n_runs=4)
        split = split_jacobian(model.H)
        with pytest.raises(ValueError, match="nu"):
            check_tail_noise_condition(summary, split, nu=-1.0)


# ---------------------------------------------------------------------------
# inconclusive results on too-small data
# ---------------------------------------------------------------------------


def _too_small(case):
    """A checker call on data too small for a verdict, by case name."""
    one = LinearModel([[1.0]])
    two = LinearModel(np.diag([1.0, -1.0]))
    split = split_jacobian(two.H)
    gapped = CaptureSpec(
        increment_indices=tuple(range(0, 400, 2)), statistics=every_statistic()
    )
    if case == "noise_excitation-few_runs":
        return check_noise_excitation(ensemble(one, N=50, n_runs=10)[0])
    if case == "noise_excitation-short_window":
        return check_noise_excitation(ensemble(one, N=50)[0], k=3, window=(10, 12))
    if case == "noise_excitation-gapped_k_window":
        return check_noise_excitation(ensemble(one, N=400, captures=gapped)[0], k=2)
    if case == "jump_moments-few_runs":
        return check_jump_moments(ensemble(one, N=50, n_runs=10)[0], a=4.0)
    if case == "jump_moments-short_window":
        return check_jump_moments(ensemble(one, N=50)[0], a=4.0, window=(10, 15))
    if case == "tail_noise-few_runs":
        few, _ = ensemble(two, N=400, n_runs=10)
        return check_tail_noise_condition(few, split, 1.0)
    summary, _ = ensemble(two, N=400)
    if case == "tail_noise-short_window":
        return check_tail_noise_condition(summary, split, 1.0, window=(10, 20))
    if case == "tail_noise-gapped_window":
        gapped_summary, _ = ensemble(two, N=400, captures=gapped)
        return check_tail_noise_condition(gapped_summary, split, 1.0)
    if case == "tail_noise-under_a_decade":
        return check_tail_noise_condition(summary, split, 1.0, window=(200, 400))
    if case == "tail_noise-no_split":
        return check_tail_noise_condition(summary, None, 1.0)
    if case == "tail_noise-vanishing_alpha":
        # alpha(t) = 2^-t / sqrt(3) computes as 0.0 from t = 537 on
        halving = Schedule(
            SequenceSpec("power", exponent=1.0), SequenceSpec("geometric", ratio=0.5), 1000
        )
        return check_tail_noise_condition(ensemble(two, N=1000, schedule=halving)[0], split, 1.0)
    if case == "rate_condition-no_split":
        return check_rate_condition(rate_constants(harmonic(10_000), (100, 10_000)), None, 1.0)
    traj = run(LinearModel([[-1.0]]), harmonic(100), [0.2], 100, seed=3)
    if case == "remainder-short_window":
        return check_remainder(traj, window=(10, 15))
    if case == "remainder_split_r-short_window":
        return check_remainder(traj, mode="split_r", window=(10, 15))
    if case == "drift_sign-empty_ball":
        return check_drift_sign(traj, [5.0], rho=0.1)
    if case == "drift_sign-few_samples":
        return check_drift_sign(traj, [0.0], rho=np.inf, window=(10, 10 + hyp.MIN_SAMPLES - 1))
    raise ValueError(case)


class TestInconclusiveReasons:
    @pytest.mark.parametrize(
        "case",
        [
            "noise_excitation-few_runs",
            "noise_excitation-short_window",
            "noise_excitation-gapped_k_window",
            "jump_moments-few_runs",
            "jump_moments-short_window",
            "tail_noise-few_runs",
            "tail_noise-short_window",
            "tail_noise-gapped_window",
            "tail_noise-under_a_decade",
            "tail_noise-no_split",
            "tail_noise-vanishing_alpha",
            "rate_condition-no_split",
            "remainder-short_window",
            "remainder_split_r-short_window",
            "drift_sign-empty_ball",
            "drift_sign-few_samples",
        ],
    )
    def test_every_inconclusive_result_gives_a_reason(self, case):
        res = _too_small(case)
        assert res.verdict == "inconclusive"
        assert isinstance(res.estimates["reason"], str) and res.estimates["reason"]

    @pytest.mark.parametrize(
        "check",
        [
            check_noise_excitation,
            lambda s: check_jump_moments(s, a=4.0),
            lambda s: check_tail_noise_condition(s, split_jacobian(np.diag([1.0, -1.0])), 1.0),
        ],
        ids=["noise_excitation", "jump_moments", "tail_noise"],
    )
    def test_no_capture_raises(self, check):
        summary, _ = ensemble(LinearModel(np.diag([1.0, -1.0])), N=50, captures=CaptureSpec())
        assert summary.noise_means is None
        with pytest.raises(InsufficientRecordsError):
            check(summary)

    @pytest.mark.parametrize(
        "check",
        [
            lambda s, split: check_noise_excitation(s, split),
            lambda s, split: check_tail_noise_condition(s, split, 1.0),
        ],
        ids=["noise_excitation", "tail_noise"],
    )
    def test_projection_not_captured_raises(self, check):
        # the full vector alone was kept: neither block of the split was
        split = split_jacobian(np.diag([1.0, -1.0]))
        summary, _ = ensemble(LinearModel(np.diag([1.0, -1.0])), N=50)
        assert summary.statistics == every_statistic()
        with pytest.raises(InsufficientRecordsError, match="projection"):
            check(summary, split)

    def test_unset_statistics_feed_the_full_vector_checks(self):
        # CaptureSpec's default keeps what both noise checks read on the full
        # vector at a = 4; another a names the (projection, power) it lacks
        caps = CaptureSpec(increment_indices=tuple(range(0, 400, 2)))
        summary, _ = ensemble(LinearModel(np.diag([1.0, -1.0])), N=400, captures=caps)
        assert check_noise_excitation(summary).verdict != "inconclusive"
        assert check_jump_moments(summary, a=4.0).verdict != "inconclusive"
        with pytest.raises(InsufficientRecordsError, match=r"\(full vector, 3\.0\)"):
            check_jump_moments(summary, a=6.0)


# ---------------------------------------------------------------------------
# constants and report assembly
# ---------------------------------------------------------------------------


class TestMakeConstants:
    def test_beta_is_max_of_rates(self):
        c = make_constants(lambda_hat=-0.5, mu=-1.0, nu=1.0, a=4.0, excitation_k=2)
        assert c["beta"] == -0.5
        assert c["nu"] == 1.0
        assert c["a"] == 4.0
        assert c["excitation_k"] == 2

    def test_beta_requires_both_rates(self):
        assert make_constants(lambda_hat=-0.5)["beta"] is None
        assert make_constants(mu=-1.0)["beta"] is None
        assert make_constants()["mu"] is None

    def test_beta_requires_finite_rates(self):
        assert make_constants(lambda_hat=-np.inf, mu=-1.0)["beta"] is None


class TestHypothesisReport:
    def _cond(self, name, verdict):
        return ConditionResult(name, verdict, {})

    def test_verdict_precedence(self):
        p, f, i = (self._cond(n, v) for n, v in
                   [("a", "pass"), ("b", "fail"), ("c", "inconclusive")])
        assert HypothesisReport("th2n", (p, p)).verdict == "pass"
        assert HypothesisReport("th2n", (p, i)).verdict == "inconclusive"
        assert HypothesisReport("th2n", (p, i, f)).verdict == "fail"
        assert HypothesisReport("th2n", ()).verdict == "inconclusive"  # nothing checked

    def test_theorem_id_validation(self):
        with pytest.raises(ValueError, match="theorem_id"):
            HypothesisReport("th99", ())
        for tid in THEOREM_IDS:
            assert HypothesisReport(tid, ()).theorem_id == tid

    def test_bad_condition_verdict(self):
        with pytest.raises(ValueError, match="verdict"):
            ConditionResult("a", "maybe", {})

    def test_to_dict_shape(self):
        rep = HypothesisReport(
            "th5d",
            (self._cond("noise_excitation", "pass"),),
            constants=make_constants(lambda_hat=-0.5, mu=-1.0, nu=1.0),
        )
        d = rep.to_dict()
        assert d["theorem_id"] == "th5d"
        assert d["verdict"] == "pass"
        assert d["constants"]["beta"] == -0.5
        assert d["conditions"][0]["name"] == "noise_excitation"

    def test_to_text_mentions_conditions(self, tmp_path, capsys):
        rep = HypothesisReport(
            "th5d",
            (
                ConditionResult("rate_condition", "pass", {"margin": 0.5}),
                ConditionResult("jump_moments", "fail", {"k": 1.0}),
            ),
        )
        doc = {"schema_version": 1, "ensemble": {}, "report": rep.to_dict()}
        (tmp_path / "summary.json").write_text(json.dumps(doc))
        assert main(["report", str(tmp_path)]) == 0
        text = capsys.readouterr().out
        assert "th5d" in text
        assert "rate_condition" in text
        assert "jump_moments" in text
        assert "overall: fail" in text


# ---------------------------------------------------------------------------
# noise statistics: the step means the engine keeps, and the paths they replace
# ---------------------------------------------------------------------------


class _BlowsUp:
    """A model mixin: a run's drift is +inf, so it leaves the region, at each
    step whose first draw is below ``p``; its noise at that step still counts
    in the step means, and none after it does."""

    raw_dtype = np.float64  # the blow-up reads the first draw itself

    def __init__(self, *args, p):
        super().__init__(*args)
        self.p = p

    def step_parts(self, x, n, raw, aux):
        # the model's own draws: u itself, or u >= 0.5 for a sign-only one
        own = raw >= 0.5 if super().raw_dtype == np.bool_ else raw
        g, eps, rem, aux = super().step_parts(x, n, own, aux)
        return np.where(raw[:, :1] < self.p, np.inf, g), eps, rem, aux


class _BlowingLinearModel(_BlowsUp, LinearModel):
    pass


class _BlowingVrrwWalkModel(_BlowsUp, VrrwWalkModel):
    pass


class _BlowingMeanFieldVrrwModel(_BlowsUp, MeanFieldVrrwModel):
    pass


def blowing(cls, p):
    """Model class ``cls`` whose runs blow up at rate ``p`` per step: its
    subclass above, defined at module level, so its models cross ``pickle``
    as a pool's do."""
    return functools.partial(globals()[f"_Blowing{cls.__name__}"], p=p)


def _eps_capture(summary):
    """The eps capture the ensemble kept before it kept squared norms: every
    run's eps at the increment steps, step-major ``(steps, runs, d)``,
    rebuilt from the runs kept in full (each bitwise the ensemble's row)."""
    inc = summary.increment_indices
    return np.stack([summary.full_runs[r].eps[inc] for r in range(summary.n_runs)], axis=1)


def _frozen_stat(split, key, power):
    """The statistic of an eps chunk the checkers reduced for the norm of
    projection ``key`` raised to ``power``, as they wrote it on ``split``."""
    M = None
    if key is not None:
        plus = key == hyp.projection(split, "plus")
        M = split.P_inv[: split.delta_plus].T if plus else split.P_inv[split.delta_plus :].T
    if power is None:
        return lambda eps: _sq_norms(eps if M is None else eps @ M)
    return lambda eps: _sq_norms(eps if M is None else eps @ M) ** power


def _frozen_eps_chunks(by_step, ok, steps):
    """The checkers' eps chunks of ``steps``, as ``hypotheses._eps_chunks``
    cut them from the step-major capture ``by_step``."""
    j = steps.start
    while j < steps.stop:
        size = engine._STEP_CHUNK
        end = j + size if steps.stop - j > size + 1 else steps.stop
        chunk = by_step[j:end]
        if ok is not None:
            chunk = np.compress(ok, chunk, axis=1)
        yield np.ascontiguousarray(chunk).transpose(1, 0, 2)
        j = end


def _frozen_step_means(split):
    """``hypotheses._step_means`` as it was before the engine kept step
    means, on the eps capture, with the checkers' statistics on ``split``."""

    def step_means(summary, steps, *stats):
        by_step = _eps_capture(summary)
        ok = summary.ok if summary.blown_up.any() else None
        out = np.empty((len(stats), steps.stop - steps.start))
        j = 0
        for eps in _frozen_eps_chunks(by_step, ok, steps):
            for row, stat in zip(out, stats):
                row[j : j + eps.shape[1]] = np.mean(_frozen_stat(split, *stat)(eps), axis=0)
            j += eps.shape[1]
        return out

    return step_means


def _rule_step_means(split):
    """The step means of the rule for blown runs, one step at a time, on the
    eps capture: :func:`conftest.rule_means` of each eps chunk's norms."""

    def step_means(summary, steps, *stats):
        ns = summary.increment_indices[steps]
        out = np.empty((len(stats), len(ns)))
        j = 0
        for eps in _frozen_eps_chunks(_eps_capture(summary), None, steps):
            cols = slice(j, j + eps.shape[1])
            for row, (key, power) in zip(out, stats):
                sq = _frozen_stat(split, key, None)(eps)
                row[cols] = rule_means(sq, ns[cols], summary.blowup_step, power, key is not None)
            j = cols.stop
        return out

    return step_means


def _runs_first_window(summary, steps):
    # the runs-first fancy indexing the checkers once read whole windows
    # with, kept as the reference: its result is physically step-major
    mask = np.zeros(len(summary.increment_indices), dtype=bool)
    mask[steps] = True
    return _eps_capture(summary).transpose(1, 0, 2)[summary.ok][:, mask, :]


def _reference_step_means(split):
    """The step means on each whole window of eps, read runs-first (for an
    ensemble with no blown run)."""

    def step_means(summary, steps, *stats):
        eps = _runs_first_window(summary, steps)
        return np.array([np.mean(_frozen_stat(split, *stat)(eps), axis=0) for stat in stats])

    return step_means


def _walk_ensemble(workers=1, blown=False):
    """A VRRW walk ensemble with a gapped head and a contiguous tail of
    increment captures, every run kept in full, and the statistics of a
    split with a repulsive block; with ``blown``, some runs blow up."""
    cls = blowing(VrrwWalkModel, 1 / 6000) if blown else VrrwWalkModel
    model = cls(VrrwConfig.complete(3, 2.0))
    N = 600
    split = split_jacobian(np.diag([1.0, -1.0, -2.0]))
    head = np.unique(np.geomspace(1, 39, 20).astype(int))
    caps = CaptureSpec(
        increment_indices=tuple(head) + tuple(range(40, N)),
        full_runs=tuple(range(48)),
        statistics=every_statistic(split),
    )
    with mock.patch.object(concurrent.futures, "ProcessPoolExecutor", InProcessPool):
        summary = monte_carlo(model, model.natural_schedule(N), model.initial_state(), N, 48, 11,
                              workers=workers, captures=caps)
    return summary, split


@pytest.fixture(scope="module")
def walk_captures():
    """:func:`_walk_ensemble` with runs that blow up."""
    return _walk_ensemble(blown=True)


@pytest.fixture(scope="module")
def clean_walk():
    """:func:`_walk_ensemble` with no run that blows up."""
    return _walk_ensemble()


def _eps_checks(summary, split, tail_windows=((40, 600), (100, 500))):
    out = []
    for window in (None, (100, 500)):
        out.append(check_noise_excitation(summary, split=split, window=window))
        out.append(check_noise_excitation(summary, window=window))
        out.append(check_noise_excitation(summary, split=split, k=3, window=window))
        out.append(check_jump_moments(summary, a=4.0, window=window))
    for window in tail_windows:
        out.append(check_tail_noise_condition(summary, split, 1.0, window=window))
    return [r.to_dict() for r in out]


class TestCaptureLayout:
    def test_captures_are_step_major_views(self, walk_captures):
        # one C-contiguous row of step means per statistic, one run count
        # per captured step, and no eps
        summary, split = walk_captures
        n = len(summary.increment_indices)
        assert summary.statistics == every_statistic(split)
        assert summary.noise_means.shape == (len(summary.statistics), n)
        assert summary.noise_means.flags.c_contiguous
        assert summary.noise_counts.shape == (n,)
        assert summary.captured_eps is None

    def test_checkers_ignore_capture_layout(self, walk_captures):
        summary, split = walk_captures
        other = dataclasses.replace(summary, noise_means=np.asfortranarray(summary.noise_means))
        assert _eps_checks(summary, split) == _eps_checks(other, split)

    def test_checkers_equal_runs_first_fancy_indexing(self, clean_walk, monkeypatch):
        summary, split = clean_walk
        got = _eps_checks(summary, split)
        monkeypatch.setattr(hyp, "_noise_means", _reference_step_means(split))
        assert got == _eps_checks(summary, split)

    @pytest.mark.parametrize("chunk", [7, 10_000])
    @pytest.mark.parametrize("blown", [True, False])
    def test_chunk_boundaries_keep_every_bit(self, monkeypatch, blown, chunk):
        # at 7 steps the engine's chunk boundaries fall inside every window;
        # at 10,000 the whole capture is one chunk
        monkeypatch.setattr(engine, "_STEP_CHUNK", chunk)
        summary, split = _walk_ensemble(blown=blown)
        assert summary.blown_up.any() == blown
        got = _eps_checks(summary, split)
        reference = _rule_step_means if blown else _reference_step_means
        monkeypatch.setattr(hyp, "_noise_means", reference(split))
        assert got == _eps_checks(summary, split)

    @pytest.mark.parametrize("blown", [True, False])
    @pytest.mark.parametrize("window", [None, (100, 500)])
    def test_window_has_the_reference_layout(self, monkeypatch, blown, window):
        # the per-step means over runs round differently unless each chunk
        # of norms is laid out as the reference's norms are: runs contiguous
        # for the full vector, one run per row for a projection
        monkeypatch.setattr(engine, "_STEP_CHUNK", 7)
        summary, split = _walk_ensemble(blown=blown)
        ns, steps = hyp._eps_window(summary, window)
        if window is not None:
            assert np.array_equal(ns, np.arange(*window))
        stats = ((None, None), (hyp.projection(split, "plus"), None), (None, 2.0))
        got = hyp._noise_means(summary, steps, *stats)
        if blown:
            want = _rule_step_means(split)(summary, steps, *stats)
        else:
            ref = _runs_first_window(summary, steps)
            plus = split.P_inv[: split.delta_plus].T
            want = [
                np.mean(np.sum(ref**2, axis=-1), axis=0),
                np.mean(np.sum((ref @ plus) ** 2, axis=-1), axis=0),
                np.mean(np.sum(ref**2, axis=-1) ** 2.0, axis=0),
            ]
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_no_blown_runs_gives_a_slice(self, clean_walk):
        # the checkers read views of the kept step means: nothing of a
        # window's size is allocated, and every run counts at every step
        summary, _ = clean_walk
        _, steps = hyp._eps_window(summary, (100, 500))
        (m2,) = hyp._noise_means(summary, steps, (None, None))
        assert np.shares_memory(m2, summary.noise_means)
        assert traced_peak(lambda: hyp._noise_means(summary, steps, (None, None))) < m2.nbytes / 4
        assert (summary.noise_counts == summary.n_runs).all()

    @pytest.mark.parametrize("k", range(1, 11))
    def test_k_window_sums_equal_the_loop(self, clean_walk, k):
        summary, _ = clean_walk
        ns = summary.increment_indices
        eps = _runs_first_window(summary, slice(None))
        m2 = np.mean(np.sum(eps**2, axis=-1), axis=0)
        sums = [
            float(np.sum(m2[i : i + k]))
            for i in range(len(ns) - k + 1)
            if ns[i + k - 1] == ns[i] + k - 1
        ]
        res = check_noise_excitation(summary, k=k)
        assert res.estimates["n_windows"] == len(sums)
        assert res.estimates["excitation_liminf"] == min(sums)


def _long_ensemble(blown=False):
    """A linear ensemble whose increment capture spans more than four step
    chunks, the last ending in a lone step (5 * 1024 + 1 steps, one more
    than a multiple of the chunk), every run kept in full, with the
    statistics of a split that mixes coordinates; with ``blown``, some runs
    blow up."""
    T = np.array([[1.0, 0.4, -0.3], [0.2, 1.0, 0.5], [-0.6, 0.1, 1.0]])
    cls = blowing(LinearModel, 2e-5) if blown else LinearModel
    model = cls(T @ np.diag([1.0, -1.0, -2.0]) @ np.linalg.inv(T))
    split = split_jacobian(model.H)
    N = 5 * 1024 + 100
    caps = CaptureSpec(
        increment_indices=tuple(range(99, N)),
        full_runs=tuple(range(40)),
        statistics=every_statistic(split) + every_statistic(split, a=3.0, nu=0.5),
    )
    summary, _ = ensemble(model, N=N, captures=caps)
    return summary, split


@pytest.fixture(scope="module")
def long_capture():
    return _long_ensemble()


@pytest.fixture(scope="module")
def long_blown():
    return _long_ensemble(blown=True)


class TestNormsEqualTheEpsPath:
    """The checkers on the step means the engine keeps give the bits they
    gave on the eps capture, through a frozen copy of that path; with blown
    runs, those of the rule for them, one step at a time."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("blown", [False, True])
    def test_walk_at_any_worker_count(self, monkeypatch, workers, blown):
        # windows that start inside the engine's chunk, k = 3, and runs
        # that blow up
        summary, split = _walk_ensemble(workers, blown)
        assert summary.blown_up.any() == blown
        got = _eps_checks(summary, split)
        reference = _rule_step_means if blown else _frozen_step_means
        monkeypatch.setattr(hyp, "_noise_means", reference(split))
        assert got == _eps_checks(summary, split)

    @pytest.mark.parametrize("blown", [False, True])
    def test_capture_of_more_than_four_chunks(self, long_capture, long_blown, monkeypatch, blown):
        summary, split = long_blown if blown else long_capture
        n = len(summary.increment_indices)
        assert n > 4 * engine._STEP_CHUNK and n % engine._STEP_CHUNK == 1
        assert summary.blown_up.any() == blown
        N = summary.N

        def checks():
            out = []
            for window in (None, (500, N), (100, N - 1)):
                out.append(check_noise_excitation(summary, split=split, window=window))
                out.append(check_noise_excitation(summary, split=split, k=2, window=window))
                out.append(check_jump_moments(summary, a=3.0, window=window))
                out.append(check_tail_noise_condition(summary, split, 0.5, window=window))
            return [r.to_dict() for r in out]

        got = checks()
        assert {r["verdict"] for r in got} <= {"pass", "fail"}
        reference = _rule_step_means if blown else _frozen_step_means
        monkeypatch.setattr(hyp, "_noise_means", reference(split))
        assert got == checks()


def _saddle_matrix(d):
    """A d-dimensional linear saddle in a skewed basis; for d = 1 the
    stable [[-1]], whose split has a non-repulsive block alone."""
    if d == 1:
        return np.array([[-1.0]])
    rng = np.random.default_rng(d)
    S = np.eye(d) + 0.3 * rng.standard_normal((d, d))
    return S @ np.diag(np.r_[1.0, -np.linspace(0.5, 2.0, d - 1)]) @ np.linalg.inv(S)


def _captured_norms(summary, keys, chunk=None):
    """Every run's squared noise norms under each projection of ``keys``,
    step-major ``(keys, steps, runs)``, reduced from the runs kept in full as
    the engine reduces them: in chunks of ``chunk`` steps (the engine's
    ``_STEP_CHUNK`` unless given) from the first captured step, a lone last
    step joining the chunk before it, 32 runs per product, each chunk a view
    of one step-major (steps, runs, d) buffer."""
    chunk = chunk or engine._STEP_CHUNK
    eps = _eps_capture(summary)
    d = eps.shape[-1]
    Ms = [None if rows is None else np.array(rows).reshape(-1, d).T for rows in keys]
    out = np.empty((len(Ms), eps.shape[0], summary.n_runs))
    j = 0
    while j < eps.shape[0]:
        end = j + chunk if eps.shape[0] - j > chunk + 1 else eps.shape[0]
        for r in range(0, summary.n_runs, 32):
            part = eps[j:end, r : r + 32]
            for M, norms in zip(Ms, out):
                y = part if M is None else (part.transpose(1, 0, 2) @ M).transpose(1, 0, 2)
                norms[j:end, r : r + 32] = _sq_norms(y)
        j = end
    return out


def _frozen_norm_step_means(summary, steps, *stats):
    """``hypotheses._step_means`` as it was when the ensemble kept every
    run's norms (:func:`_captured_norms`): chunks of ``_STEP_CHUNK`` steps
    from the window's start, laid out runs-first, runs contiguous for the
    full vector and one run per row for a projection."""
    keys = list(dict.fromkeys(key for key, _ in stats))
    norms = _captured_norms(summary, keys)
    ok = summary.ok if summary.blown_up.any() else None
    out = np.empty((len(stats), steps.stop - steps.start))
    j = steps.start
    while j < steps.stop:
        end = j + engine._STEP_CHUNK if steps.stop - j > engine._STEP_CHUNK + 1 else steps.stop
        cols = slice(j - steps.start, end - steps.start)
        for row, (key, power) in zip(out, stats):
            sq = norms[keys.index(key)]
            chunk = np.ascontiguousarray(sq[j:end]) if ok is None else np.compress(ok, sq[j:end], 1)
            chunk = chunk.T if key is None else np.ascontiguousarray(chunk.T)
            row[cols] = np.mean(chunk if power is None else chunk**power, axis=0)
        j = end
    return out


class TestStreamedMeans:
    """The step means one batch streams, and those reduced from the merged
    norms of a pool, equal a frozen copy of the checkers' reduction of every
    run's norms, in windows that start inside a chunk."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("steps", [1025, 2100])
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 12])
    def test_means_equal_the_frozen_step_means(self, d, steps, workers):
        model = LinearModel(_saddle_matrix(d))
        split = split_jacobian(model.H)
        N = steps + 40
        caps = CaptureSpec(
            increment_indices=tuple(range(37, 37 + steps)),
            full_runs=tuple(range(40)),
            statistics=every_statistic(split) + every_statistic(split, a=3.0, nu=0.5),
        )
        with mock.patch.object(concurrent.futures, "ProcessPoolExecutor", InProcessPool):
            summary = monte_carlo(model, harmonic(N), np.full(d, 0.1), N, 40, 7,
                                  workers=workers, captures=caps)
        assert not summary.blown_up.any()
        for start in (0, 1, 13, engine._STEP_CHUNK + 30, steps - 70):
            window = slice(start, steps)
            want = _frozen_norm_step_means(summary, window, *summary.statistics)
            assert np.array_equal(summary.noise_means[:, window], want)


    @pytest.mark.parametrize("blown", [False, True])
    def test_steps_reduced_a_few_at_a_time_keep_every_bit(self, monkeypatch, blown):
        # a batch of many runs takes each chunk's means a few steps at a
        # time, down to one
        want, split = _walk_ensemble(blown=blown)
        for steps in (1, 2, 7):
            monkeypatch.setattr(engine, "_MEAN_BLOCK", 48 * steps)
            got, _ = _walk_ensemble(blown=blown)
            assert np.array_equal(got.noise_means, want.noise_means)
            assert np.array_equal(got.noise_counts, want.noise_counts)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("inc", [(50,), (50, 51), (10, 70, 130)])
    def test_a_lone_captured_step_sums_in_run_order(self, inc, workers):
        # numpy would sum the lone column of a one-step capture pairwise; a
        # projection's mean is the sum in run order there too
        model = LinearModel(_saddle_matrix(3))
        split = split_jacobian(model.H)
        caps = CaptureSpec(increment_indices=inc, full_runs=tuple(range(100)),
                           statistics=every_statistic(split, a=3.0))
        with mock.patch.object(concurrent.futures, "ProcessPoolExecutor", InProcessPool):
            summary = monte_carlo(model, harmonic(200), np.full(3, 0.1), 200, 100, 3,
                                  workers=workers, captures=caps)
        keys = list(dict.fromkeys(key for key, _ in summary.statistics))
        norms = _captured_norms(summary, keys)
        for got, (key, power) in zip(summary.noise_means, summary.statistics):
            sq = norms[keys.index(key)].T
            want = rule_means(sq, inc, summary.blowup_step, power, key is not None)
            assert np.array_equal(got, want)


class TestBlownRuns:
    """A run that blows up at step b counts in the step means at the captured
    steps before b, and ``MIN_RUNS`` is judged on the runs at each step."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_means_and_counts_follow_the_rule(self, workers):
        summary, split = _walk_ensemble(workers, blown=True)
        b, ns = summary.blowup_step, summary.increment_indices
        # runs blow up inside the capture, so the counts fall during it
        assert np.count_nonzero((b > ns[0]) & (b <= ns[-1])) >= 2
        live = (b == 0)[:, None] | (ns < b[:, None])
        assert np.array_equal(summary.noise_counts, live.sum(axis=0))
        assert summary.noise_counts[0] > summary.noise_counts[-1] >= hyp.MIN_RUNS
        reference = _rule_step_means(split)
        for start in (0, 5, 100):
            window = slice(start, len(ns))
            want = reference(summary, window, *summary.statistics)
            assert np.array_equal(summary.noise_means[:, window], want)

    def test_min_runs_is_judged_at_each_step(self, clean_walk):
        # one captured step with MIN_RUNS - 1 runs makes a window over it
        # inconclusive with that count; a window that ends before it reads
        # as it did
        summary, split = clean_walk
        counts = summary.noise_counts.copy()
        counts[np.searchsorted(summary.increment_indices, 500)] = hyp.MIN_RUNS - 1
        few = dataclasses.replace(summary, noise_counts=counts)
        checks = [
            lambda s, w: check_noise_excitation(s, split=split, window=w),
            lambda s, w: check_jump_moments(s, a=4.0, window=w),
            lambda s, w: check_tail_noise_condition(s, split, 1.0, window=w),
        ]
        for check in checks:
            res = check(few, (40, 600))
            assert res.verdict == "inconclusive"
            assert res.estimates == {"n_runs": hyp.MIN_RUNS - 1, "reason": "too few runs"}
            assert check(few, (40, 500)) == check(summary, (40, 500))
            assert check(summary, (40, 500)).estimates.get("reason") != "too few runs"


def _saddle_ensemble(d, blown=False):
    """A d-dimensional linear saddle in a skewed basis: 40 runs kept in
    full, every step from 99 on captured with the statistics of its split;
    with ``blown``, some runs blow up."""
    cls = blowing(LinearModel, 6e-5) if blown else LinearModel
    model = cls(_saddle_matrix(d))
    split = split_jacobian(model.H)
    N = 1200
    caps = CaptureSpec(increment_indices=tuple(range(99, N)), full_runs=tuple(range(40)),
                       statistics=every_statistic(split))
    return ensemble(model, N=N, captures=caps)[0], split


class TestStepChunkSize:
    """The size of the engine's step chunks changes no bit: step means and
    checker results equal those of 1024-step chunks."""

    @pytest.mark.parametrize("steps", [1025, 2100])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 9, 16])
    def test_norms_equal_the_1024_step_chunks(self, d, steps):
        # the step means of the norms the engine once reduced with 1024-step
        # chunks: 2100 = 2 * 1024 + 52 ends in a short chunk at either size,
        # and 1025 captured steps end in a lone step that joins the chunk
        # before it
        rng = np.random.default_rng(d)
        model = LinearModel(np.diag(np.linspace(0.5, -1.5, d)))
        keys = (None,) + tuple(
            tuple(map(tuple, rng.standard_normal((k, d)).tolist()))
            for k in sorted({1, max(1, d // 2), d})
        )
        stats = tuple((key, power) for key in keys for power in (None, 1.5))
        N = steps + 40
        caps = CaptureSpec(
            increment_indices=tuple(range(37, 37 + steps)),
            full_runs=tuple(range(40)),
            statistics=stats,
        )
        summary, _ = ensemble(model, N=N, captures=caps)
        assert not summary.blown_up.any()
        norms = _captured_norms(summary, keys, 1024)
        ns, b = summary.increment_indices, summary.blowup_step
        for got, (key, power) in zip(summary.noise_means, stats):
            sq = norms[keys.index(key)].T
            assert np.array_equal(got, rule_means(sq, ns, b, power, key is not None))

    @pytest.mark.parametrize("blown", [False, True])
    @pytest.mark.parametrize("case", ["walk", "saddle-5", "saddle-8", "saddle-12"])
    def test_checkers_equal_at_1024_and_64_steps(self, monkeypatch, case, blown):
        # the windows start inside a chunk at either size
        results = []
        for chunk in (1024, 64):
            monkeypatch.setattr(engine, "_STEP_CHUNK", chunk)
            if case == "walk":
                summary, split = _walk_ensemble(blown=blown)
                windows, tail_windows = (None, (100, 500)), ((40, 600), (100, 500))
            else:
                summary, split = _saddle_ensemble(int(case.split("-")[1]), blown)
                windows, tail_windows = (None, (500, 1200), (130, 1199)), (None, (100, 1200))
            assert summary.blown_up.any() == blown
            out = []
            for window in windows:
                out.append(check_noise_excitation(summary, split=split, window=window))
                out.append(check_noise_excitation(summary, split=split, k=3, window=window))
                out.append(check_jump_moments(summary, a=4.0, window=window))
            for window in tail_windows:
                out.append(check_tail_noise_condition(summary, split, 1.0, window=window))
            results.append([r.to_dict() for r in out])
        decided = {r["name"] for r in results[0] if r["verdict"] != "inconclusive"}
        assert decided == {"noise_excitation", "jump_moments", "tail_noise_smallness"}
        assert results[0] == results[1]


def _frozen_sq_norms(y):
    # the sum of squares the eps checkers' statistics took before the fold
    return np.sum(y**2, axis=-1)


def _vrrw_ensemble(d, blown=False):
    """A d-vertex mean-field VRRW ensemble with every step's statistics
    captured on a split of a fixed non-diagonal matrix, so both projections
    mix coordinates; with ``blown``, some runs blow up."""
    cls = blowing(MeanFieldVrrwModel, 1 / 5000) if blown else MeanFieldVrrwModel
    model = cls(VrrwConfig.complete(d, 1.5))
    N = 600
    M = np.random.default_rng(d).standard_normal((d, d)) + 3.0 * np.eye(d)
    H = M @ np.diag([1.0] + [-1.0 - j for j in range(d - 1)]) @ np.linalg.inv(M)
    split = split_jacobian(H)
    caps = CaptureSpec(increment_indices=tuple(range(N)), statistics=every_statistic(split))
    summary = monte_carlo(model, model.natural_schedule(N), model.initial_state(), N, 40, 3,
                          captures=caps)
    return summary, split


@pytest.fixture(scope="module", params=[2, 3, 5])
def vrrw_captures(request):
    return request.param, *_vrrw_ensemble(request.param)


class TestFoldedEpsStatistics:
    @pytest.mark.parametrize("blown", [False, True])
    def test_checkers_equal_the_frozen_sums(self, vrrw_captures, monkeypatch, blown):
        d, summary, split = vrrw_captures
        if blown:
            summary, _ = _vrrw_ensemble(d, blown)
        assert summary.blown_up.any() == blown
        got = _eps_checks(summary, split, ((40, 600), (60, 600)))
        decided = {r["name"] for r in got if r["verdict"] != "inconclusive"}
        assert decided == {"noise_excitation", "jump_moments", "tail_noise_smallness"}
        monkeypatch.setattr(engine, "_sq_norms", _frozen_sq_norms)
        frozen, _ = _vrrw_ensemble(d, blown)
        assert got == _eps_checks(frozen, split, ((40, 600), (60, 600)))


class TestCaptureMemory:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_batch_keeps_step_means_not_norms(self, workers):
        # 200 runs captured at 19,000 steps on two projections: every run's
        # norms would take 60.8 MB; one batch keeps three rows of step means
        # and a run count per step, and while it runs one chunk of eps and
        # one of norms, a few reduction temporaries of a chunk of norms each,
        # the captured steps as one int64 array and the set of chunk ends.
        # More workers keep one batch: a pooled one would return its norms
        model = LinearModel(np.diag([1.0, -1.0, -2.0]))
        minus = hyp.projection(split_jacobian(model.H), "minus")
        N, n_runs = 19_100, 200
        inc = tuple(range(100, N))
        sched = harmonic(N)

        def simulate(statistics, workers=1):
            caps = CaptureSpec(increment_indices=inc, statistics=statistics)
            with mock.patch.object(concurrent.futures, "ProcessPoolExecutor",
                                   InProcessPool):
                return monte_carlo(model, sched, np.full(3, 0.1), N, n_runs, 7, workers,
                                   captures=caps)

        stats = ((None, None), (None, 2.0), (minus, 1.0))
        norm_bytes = 2 * len(inc) * n_runs * 8
        means_bytes = (len(stats) + 1) * len(inc) * 8
        chunk_norms = (engine._STEP_CHUNK + 1) * n_runs * 8
        simulate(())  # the first ensemble of a process imports numpy.random
        extra = traced_peak(lambda: simulate(stats, workers)) - traced_peak(lambda: simulate(()))
        assert extra <= means_bytes + 5 * 3 * chunk_norms + 2 * len(inc) * 8 + 2**16
        assert extra < norm_bytes / 20

    @pytest.mark.parametrize("blown", [False, True])
    def test_checkers_build_no_window_sized_temporary(self, long_capture, long_blown, blown):
        summary, split = long_blown if blown else long_capture
        window = (100, summary.N)
        _, steps = hyp._eps_window(summary, window)
        assert steps.stop - steps.start >= 4 * engine._STEP_CHUNK
        # a window of every run's norms, which the checkers reduced before
        # the engine kept step means
        window_bytes = (steps.stop - steps.start) * summary.n_runs * 8
        checks = [
            lambda: check_tail_noise_condition(summary, split, 1.0, window=window),
            lambda: check_noise_excitation(summary, split=split, window=window),
            lambda: check_noise_excitation(summary, window=window),
        ]
        for check in checks:
            assert check().verdict != "inconclusive"
            assert traced_peak(check) < window_bytes
