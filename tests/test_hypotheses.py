"""Tests for the finite-sample condition checkers."""

import dataclasses
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

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
from trapcheck.models import LinearModel, VrrwConfig, VrrwWalkModel, control_models
from trapcheck.sequences import Schedule, SequenceSpec, rate_constants
from trapcheck.spectral import adapted_inner_product, split_jacobian

from conftest import traced_peak


def harmonic(horizon):
    return Schedule(
        gamma=SequenceSpec("power", exponent=1.0),
        c=SequenceSpec("power", exponent=1.0),
        horizon=horizon,
    )


def ensemble(model, N=300, n_runs=40, master_seed=7, captures=None, schedule=None):
    sched = schedule if schedule is not None else harmonic(N)
    caps = captures if captures is not None else CaptureSpec(
        increment_indices=tuple(range(N))
    )
    x0 = np.full(model.dim, 0.1)
    return monte_carlo(model, sched, x0, N, n_runs, master_seed, captures=caps), sched


class InvNRemainder(LinearModel):
    """Contracting 1-D model with the square-summable remainder r_n = 1/n."""

    def __init__(self):
        super().__init__([[-1.0]], noise_kind="rademacher", id="rem_inv_n")

    def remainder(self, x, n):
        return np.full_like(x, 1.0 / (n + 1.0))


class ConstRemainder(LinearModel):
    """Contracting 1-D model with a non-vanishing remainder r_n = 1."""

    def __init__(self):
        super().__init__([[-1.0]], noise_kind="rademacher", id="rem_const")

    def remainder(self, x, n):
        return np.ones_like(x)


class GrowingJumps(LinearModel):
    """Noise magnitude grows linearly: every fixed jump moment diverges."""

    def __init__(self):
        super().__init__([[-1.0]], noise_kind="rademacher", id="growing_jumps")

    def noise(self, x, n, raw):
        return ((n + 1) / 50.0) * super().noise(x, n, raw)


class GrowingNoise2D(LinearModel):
    """Geometrically growing noise on the split model diag(1, -1)."""

    def __init__(self):
        super().__init__(np.diag([1.0, -1.0]), noise_kind="rademacher", id="growing_2d")

    def noise(self, x, n, raw):
        return 1.2**n * super().noise(x, n, raw)


def manual_circle_trajectory(H, radius=0.5, n_pts=64):
    """Deterministic trajectory whose states sweep a circle."""
    th = np.linspace(0.0, 2.0 * np.pi, n_pts, endpoint=False)
    pts = radius * np.stack([np.cos(th), np.sin(th)], axis=1)
    states = np.vstack([pts, pts[:1]])
    g = pts @ np.asarray(H, dtype=np.float64).T
    z = np.zeros_like(g)
    return Trajectory(
        model_id="manual",
        seed=0,
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
        summary, _ = ensemble(model, n_runs=32)
        split = split_jacobian(np.diag([1.0, -1.0]))
        # repulsive coordinate is never excited
        res_split = check_noise_excitation(summary, split=split)
        assert res_split.verdict == "fail"
        assert res_split.estimates["excitation_liminf"] == 0.0
        # but the full noise vector looks perfectly healthy
        res_full = check_noise_excitation(summary)
        assert res_full.verdict == "pass"

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
        caps = CaptureSpec(increment_indices=tuple(range(0, 100, 2)))
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
        assert check_remainder(traj, mode="split_r", nu=2.0).verdict == "fail"
        assert (
            check_remainder(traj, mode="split_r", nu=2.0, growth_factor=5.0).verdict
            == "pass"
        )

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
            adapted=adapted,
        )
        assert res.verdict == "pass"
        assert res.estimates["worst_value"] > 0.0

    def test_projection_onto_repulsive_block(self):
        traj = manual_circle_trajectory(np.diag([1.0, -1.0]))
        # full inner product x1^2 - x2^2 changes sign around the circle
        assert check_drift_sign(traj, [0.0, 0.0], rho=1.0).verdict == "fail"
        res = check_drift_sign(
            traj, [0.0, 0.0], rho=1.0, project=np.array([[1.0, 0.0]])
        )
        assert res.verdict == "pass"

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

    def test_trap_split_and_bare_mu_agree(self, harmonic_rates):
        split = split_jacobian(np.diag([1.0, -1.0]))
        assert split.mu == pytest.approx(-1.0)
        res_split = check_rate_condition(harmonic_rates, split, nu=1.0)
        res_mu = check_rate_condition(harmonic_rates, -1.0, nu=1.0)
        assert res_split.estimates == res_mu.estimates

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
        assert check_jump_moments(summary, a=4.0).verdict == "inconclusive"

    def test_short_window_inconclusive(self):
        caps = CaptureSpec(increment_indices=tuple(range(5)))
        summary, _ = ensemble(LinearModel([[1.0]]), N=50, captures=caps)
        assert check_jump_moments(summary, a=4.0).verdict == "inconclusive"


# ---------------------------------------------------------------------------
# tail noise smallness
# ---------------------------------------------------------------------------


class TestTailNoise:
    def test_bounded_noise_on_harmonic_schedule_passes(self):
        model = LinearModel(np.diag([1.0, -1.0]))
        summary, sched = ensemble(model, N=400)
        split = split_jacobian(model.H)
        res = check_tail_noise_condition(summary, split, nu=1.0, schedule=sched)
        assert res.verdict == "pass"
        assert res.estimates["ratio_end"] < res.estimates["ratio_decade_ago"]

    def test_growing_noise_fails(self):
        model = GrowingNoise2D()
        sched = Schedule(
            gamma=SequenceSpec("power", exponent=1.0),
            c=SequenceSpec("geometric", scale=1.0, ratio=0.9),
            horizon=100,
        )
        summary, _ = ensemble(model, N=100, schedule=sched)
        split = split_jacobian(model.H)
        res = check_tail_noise_condition(summary, split, nu=1.0, schedule=sched)
        assert res.verdict == "fail"
        assert res.estimates["ratio_end"] > res.estimates["ratio_decade_ago"]

    def test_short_decade_inconclusive(self):
        model = LinearModel(np.diag([1.0, -1.0]))
        summary, sched = ensemble(model, N=400)
        split = split_jacobian(model.H)
        res = check_tail_noise_condition(
            summary, split, nu=1.0, schedule=sched, window=(200, 400)
        )
        assert res.verdict == "inconclusive"

    def test_noncontiguous_window_inconclusive(self):
        model = LinearModel(np.diag([1.0, -1.0]))
        caps = CaptureSpec(increment_indices=tuple(range(0, 400, 2)))
        summary, sched = ensemble(model, N=400, captures=caps)
        split = split_jacobian(model.H)
        res = check_tail_noise_condition(summary, split, nu=1.0, schedule=sched)
        assert res.verdict == "inconclusive"

    def test_nu_must_be_positive(self):
        model = LinearModel(np.diag([1.0, -1.0]))
        summary, sched = ensemble(model, N=50, n_runs=4)
        split = split_jacobian(model.H)
        with pytest.raises(ValueError, match="nu"):
            check_tail_noise_condition(summary, split, nu=-1.0, schedule=sched)


# ---------------------------------------------------------------------------
# inconclusive results on too-small data
# ---------------------------------------------------------------------------


def _too_small(case):
    """A checker call on data too small for a verdict, by case name."""
    one = LinearModel([[1.0]])
    two = LinearModel(np.diag([1.0, -1.0]))
    split = split_jacobian(two.H)
    gapped = CaptureSpec(increment_indices=tuple(range(0, 400, 2)))
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
    summary, sched = ensemble(two, N=400)
    if case == "tail_noise-short_window":
        return check_tail_noise_condition(summary, split, 1.0, sched, window=(10, 20))
    if case == "tail_noise-gapped_window":
        gapped_summary, _ = ensemble(two, N=400, captures=gapped)
        return check_tail_noise_condition(gapped_summary, split, 1.0, sched)
    if case == "tail_noise-under_a_decade":
        return check_tail_noise_condition(summary, split, 1.0, sched, window=(200, 400))
    traj = run(LinearModel([[-1.0]]), harmonic(100), [0.2], 100, seed=3)
    if case == "remainder-short_window":
        return check_remainder(traj, window=(10, 15))
    if case == "remainder_split_r-short_window":
        return check_remainder(traj, mode="split_r", window=(10, 15))
    if case == "drift_sign-empty_ball":
        return check_drift_sign(traj, [5.0], rho=0.1)
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
            "tail_noise-short_window",
            "tail_noise-gapped_window",
            "tail_noise-under_a_decade",
            "remainder-short_window",
            "remainder_split_r-short_window",
            "drift_sign-empty_ball",
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
            lambda s: check_tail_noise_condition(
                s, split_jacobian(np.diag([1.0, -1.0])), 1.0, harmonic(50)
            ),
        ],
        ids=["noise_excitation", "jump_moments", "tail_noise"],
    )
    def test_no_capture_raises(self, check):
        summary, _ = ensemble(LinearModel(np.diag([1.0, -1.0])), N=50, captures=CaptureSpec())
        assert summary.captured_eps is None
        with pytest.raises(InsufficientRecordsError):
            check(summary)


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
        (tmp_path / "summary.json").write_text(json.dumps({"report": rep.to_dict()}))
        assert main(["report", str(tmp_path)]) == 0
        text = capsys.readouterr().out
        assert "th5d" in text
        assert "rate_condition" in text
        assert "jump_moments" in text
        assert "overall: fail" in text


# ---------------------------------------------------------------------------
# capture layout and step chunks
# ---------------------------------------------------------------------------


def _runs_first_window(summary, steps):
    # the runs-first fancy indexing the checkers once read whole windows
    # with, kept as the reference: its result is physically step-major
    mask = np.zeros(len(summary.increment_indices), dtype=bool)
    mask[steps] = True
    return summary.captured_eps[summary.ok][:, mask, :]


def _reference_step_means(summary, steps, *stats):
    eps = _runs_first_window(summary, steps)
    return np.array([np.mean(stat(eps), axis=0) for stat in stats])


@pytest.fixture(scope="module")
def walk_captures():
    """A VRRW walk ensemble with a gapped head and a contiguous tail of
    increment captures, and three runs marked blown up."""
    model = VrrwWalkModel(VrrwConfig.complete(3, 2.0))
    N = 600
    sched = model.natural_schedule(N)
    head = np.unique(np.geomspace(1, 39, 20).astype(int))
    caps = CaptureSpec(increment_indices=tuple(head) + tuple(range(40, N)))
    summary = monte_carlo(model, sched, model.initial_state(), N, 48, 11, captures=caps)
    blown = summary.blown_up.copy()
    blown[[3, 17, 40]] = True
    split = split_jacobian(np.diag([1.0, -1.0, -2.0]))  # a repulsive block to project on
    return dataclasses.replace(summary, blown_up=blown), sched, split


def _eps_checks(summary, sched, split):
    out = []
    for window in (None, (100, 500)):
        out.append(check_noise_excitation(summary, split=split, window=window))
        out.append(check_noise_excitation(summary, window=window))
        out.append(check_noise_excitation(summary, split=split, k=3, window=window))
        out.append(check_jump_moments(summary, a=4.0, window=window))
    for window in ((40, 600), (100, 500)):
        out.append(check_tail_noise_condition(summary, split, 1.0, sched, window=window))
    return [r.to_dict() for r in out]


def _with_blown(summary, blown):
    if blown:
        return summary
    return dataclasses.replace(summary, blown_up=np.zeros(summary.n_runs, dtype=bool))


class TestCaptureLayout:
    def test_captures_are_step_major_views(self, walk_captures):
        summary, _, _ = walk_captures
        arr = summary.captured_eps
        assert arr.shape == (48, len(summary.increment_indices), 3)
        assert arr.transpose(1, 0, 2).flags.c_contiguous

    def test_checkers_ignore_capture_layout(self, walk_captures):
        summary, sched, split = walk_captures
        runs_first = dataclasses.replace(
            summary, captured_eps=np.ascontiguousarray(summary.captured_eps)
        )
        assert _eps_checks(summary, sched, split) == _eps_checks(runs_first, sched, split)

    def test_checkers_equal_runs_first_fancy_indexing(self, walk_captures, monkeypatch):
        summary, sched, split = walk_captures
        got = _eps_checks(summary, sched, split)
        monkeypatch.setattr(hyp, "_step_means", _reference_step_means)
        assert got == _eps_checks(summary, sched, split)

    @pytest.mark.parametrize("chunk", [7, 10_000])
    @pytest.mark.parametrize("blown", [True, False])
    def test_chunk_boundaries_keep_every_bit(self, walk_captures, monkeypatch, blown, chunk):
        # at 7 steps a chunk boundary falls inside every window, and the
        # 400-step window (100, 500) ends in a lone step (400 = 57 * 7 + 1);
        # at 10,000 each window is one chunk
        summary, sched, split = walk_captures
        summary = _with_blown(summary, blown)
        monkeypatch.setattr(hyp, "_STEP_CHUNK", chunk)
        got = _eps_checks(summary, sched, split)
        monkeypatch.setattr(hyp, "_step_means", _reference_step_means)
        assert got == _eps_checks(summary, sched, split)

    @pytest.mark.parametrize("blown", [True, False])
    @pytest.mark.parametrize("window", [None, (100, 500)])
    def test_window_has_the_reference_layout(self, walk_captures, monkeypatch, blown, window):
        # the per-step means over runs round differently unless the runs
        # axis of every chunk is laid out as the reference lays it out
        summary = _with_blown(walk_captures[0], blown)
        runs_first = dataclasses.replace(
            summary, captured_eps=np.ascontiguousarray(summary.captured_eps)
        )
        monkeypatch.setattr(hyp, "_STEP_CHUNK", 7)
        ns, steps = hyp._eps_window(summary, window)
        if window is not None:
            assert np.array_equal(ns, np.arange(*window))
        ref = _runs_first_window(summary, steps)
        for s in (summary, runs_first):
            j = 0
            for eps in hyp._eps_chunks(s, steps):
                assert 2 <= eps.shape[1] <= 8
                part = ref[:, j : j + eps.shape[1]]
                assert eps.strides == part.strides
                assert np.array_equal(eps, part)
                j += eps.shape[1]
            assert j == len(ns)
        ref_m2 = np.mean(np.sum(ref**2, axis=-1), axis=0)
        m2 = hyp._step_means(summary, steps, lambda eps: np.sum(eps**2, axis=-1))[0]
        assert np.array_equal(m2, ref_m2)

    def test_no_blown_runs_gives_a_slice(self, walk_captures):
        clean = _with_blown(walk_captures[0], False)
        _, steps = hyp._eps_window(clean, (100, 500))
        for eps in hyp._eps_chunks(clean, steps):
            assert np.shares_memory(eps, clean.captured_eps)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_k_window_sums_equal_the_loop(self, walk_captures, k):
        summary, _, _ = walk_captures
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


@pytest.fixture(scope="module")
def long_capture():
    """An ensemble whose eps capture spans more than four step chunks."""
    model = LinearModel(np.diag([1.0, -1.0, -2.0]))
    N = 4 * hyp._STEP_CHUNK + 200
    caps = CaptureSpec(increment_indices=tuple(range(100, N)))
    summary, sched = ensemble(model, N=N, captures=caps)
    return summary, sched, split_jacobian(model.H)


class TestCaptureMemory:
    def test_only_eps_is_captured(self, long_capture):
        summary, _, _ = long_capture
        assert summary.captured_eps is not None
        assert summary.captured_g is None
        assert summary.captured_rem is None

    @pytest.mark.parametrize("blown", [False, True])
    def test_checkers_build_no_window_sized_temporary(self, long_capture, blown):
        summary, sched, split = long_capture
        if blown:
            summary = dataclasses.replace(summary, blown_up=np.arange(summary.n_runs) == 5)
        window = (100, summary.N)
        _, steps = hyp._eps_window(summary, window)
        assert steps.stop - steps.start >= 4 * hyp._STEP_CHUNK
        window_bytes = summary.captured_eps[:, steps].nbytes
        checks = [
            lambda: check_tail_noise_condition(summary, split, 1.0, sched, window=window),
            lambda: check_noise_excitation(summary, split=split, window=window),
            lambda: check_noise_excitation(summary, window=window),
        ]
        for check in checks:
            assert check().verdict != "inconclusive"
            assert traced_peak(check) < window_bytes
