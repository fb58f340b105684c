"""Tests for flow integration, the drift clock, and the path diagnostics."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from trapcheck import flow
from trapcheck.engine import CaptureSpec, monte_carlo, run
from trapcheck.errors import (
    DegenerateTimeChangeError,
    InsufficientHorizonError,
    SingularDenominatorError,
)
from trapcheck.flow import (
    TimeChangedPath,
    apt_deficit,
    ensemble_apt_deficit,
    ensemble_manifold_rate,
    flow_path,
    manifold_rate,
    time_change,
)
from trapcheck.models import LinearModel, ManifoldK, MeanFieldVrrwModel, VrrwConfig
from trapcheck.sequences import Schedule, SequenceSpec
from trapcheck.spectral import split_jacobian

from conftest import traced_peak

H_SADDLE = np.diag([1.0, -1.0])


def saddle_field(x):
    return x @ H_SADDLE.T


def zero_field(x):
    return np.zeros_like(x)


def harmonic(horizon):
    return Schedule(
        gamma=SequenceSpec("power", exponent=1.0),
        c=SequenceSpec("power", exponent=1.0),
        horizon=horizon,
    )


def const_schedule(horizon, gamma=1.0, c=0.0):
    return Schedule(
        gamma=SequenceSpec("const", value=gamma),
        c=SequenceSpec("const", value=c),
        horizon=horizon,
    )


# ---------------------------------------------------------------------------
# flow integration
# ---------------------------------------------------------------------------


def phi(f, x0, h, T):
    """The flow's time-T map at x0: the end of :func:`flow_path` over [0, T]."""
    return flow_path(f, x0, [0.0, T], h).states[..., -1, :]


class TestIntegrateFlow:
    def test_zero_field_is_identity(self):
        x0 = np.array([0.3, -1.2])
        assert_allclose(phi(zero_field, x0, h=1e-2, T=3.0), x0, rtol=0)

    def test_linear_saddle_matches_exponentials(self):
        out = phi(saddle_field, [1.0, 1.0], h=1e-3, T=0.5)
        assert_allclose(out, [np.exp(0.5), np.exp(-0.5)], rtol=1e-9)

    def test_step_halving_gains_fourth_order(self):
        # f(x) = x^2 from 1: phi_t(1) = 1/(1-t), exact value 2 at t = 0.5
        f = lambda x: x**2
        exact = 2.0
        e1 = abs(float(phi(f, [1.0], h=0.05, T=0.5)[0]) - exact)
        e2 = abs(float(phi(f, [1.0], h=0.025, T=0.5)[0]) - exact)
        assert e1 / e2 == pytest.approx(16.0, rel=0.2)

    def test_group_property(self):
        f = lambda x: np.stack([-x[..., 1], x[..., 0]], axis=-1)
        x0 = np.array([1.0, 0.25])
        direct = phi(f, x0, h=1e-3, T=0.7)
        staged = phi(f, phi(f, x0, h=1e-3, T=0.3), h=1e-3, T=0.4)
        assert np.max(np.abs(direct - staged)) <= 1e-9

    def test_batched_points_match_single(self):
        pts = np.array([[1.0, 1.0], [0.5, -0.25], [-2.0, 0.1]])
        batch = phi(saddle_field, pts, h=1e-3, T=0.3)
        singles = [phi(saddle_field, p, h=1e-3, T=0.3) for p in pts]
        assert_allclose(batch, np.array(singles), rtol=1e-12)

    @pytest.mark.parametrize("field", ["cubic", "identity", "read-only"])
    @pytest.mark.parametrize("sizes", ["scalar", "per-element"])
    def test_rk4_step_keeps_the_formula_bits(self, field, sizes):
        # the stages and the sum are built in place: the bits of the formula
        # as written, also for a field that returns its own input (the
        # stages must not write into it) or an array it keeps
        rng = np.random.default_rng(4)
        x = rng.standard_normal((50, 3))
        x[::5] = -0.0
        kept = rng.standard_normal(x.shape)
        kept.flags.writeable = False
        f = {"cubic": lambda y: y**3 - np.roll(y, 1, axis=-1),
             "identity": lambda y: y, "read-only": lambda y: kept}[field]
        hh = 0.37 if sizes == "scalar" else rng.uniform(1e-3, 0.5, x.shape)
        k1 = f(x)
        k2 = f(x + (0.5 * hh) * k1)
        k3 = f(x + (0.5 * hh) * k2)
        k4 = f(x + hh * k3)
        want = x + (hh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        before = x.copy()
        got = flow._rk4_step(f, x, hh)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(x.view(np.int64), before.view(np.int64))

    def test_flow_path_records_grid(self):
        s = np.linspace(0.0, 2.0, 21)
        path = flow_path(saddle_field, [1.0, 1.0], s, h=1e-3)
        assert path.states.shape == (21, 2)
        assert_allclose(path.states[:, 0], np.exp(s), rtol=1e-8)
        assert_allclose(path.states[:, 1], np.exp(-s), rtol=1e-8)


# ---------------------------------------------------------------------------
# the drift clock
# ---------------------------------------------------------------------------


class TestTimeChange:
    def test_unit_gamma_gives_integer_grid(self):
        traj = run(
            LinearModel([[-1.0]], noise_kind="none"),
            const_schedule(50, gamma=0.1),
            [0.5],
            50,
            seed=1,
        )
        path = time_change(traj)
        assert_allclose(path.s_grid, 0.1 * np.arange(51), rtol=1e-14)
        assert np.array_equal(path.states, traj.states)

    def test_harmonic_clock_is_log_like(self):
        N = 10_000
        traj = run(LinearModel([[-1.0]]), harmonic(N), [0.5], N, seed=2)
        path = time_change(traj)
        # H_N = log N + Euler-Mascheroni + O(1/N)
        assert path.s_grid[-1] == pytest.approx(np.log(N) + 0.5772156649, abs=1e-3)

    def test_index_subset(self):
        traj = run(LinearModel([[-1.0]]), harmonic(100), [0.5], 100, seed=2)
        path = time_change(traj, indices=[0, 10, 20])
        assert len(path.s_grid) == 3
        assert np.array_equal(path.states, traj.states[[0, 10, 20]])
        with pytest.raises(ValueError, match="range"):
            time_change(traj, indices=[0, 500])

    def test_vanishing_gamma_rejected(self):
        traj = run(
            LinearModel([[-1.0]], noise_kind="none"),
            const_schedule(20, gamma=0.0),
            [0.5],
            20,
            seed=1,
        )
        with pytest.raises(DegenerateTimeChangeError):
            time_change(traj)


class TestTimeChangedPath:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            TimeChangedPath(np.arange(3.0), np.zeros((4, 2)))

    def test_holds_a_stack_of_runs(self):
        path = TimeChangedPath(np.arange(3.0), np.zeros((5, 3, 2)))
        assert path.states.shape == (5, 3, 2)
        with pytest.raises(ValueError, match="equal length"):
            TimeChangedPath(np.arange(3.0), np.zeros((3, 4, 2)))

    def test_non_increasing_grid(self):
        with pytest.raises(DegenerateTimeChangeError):
            TimeChangedPath(np.array([0.0, 1.0, 1.0]), np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# shadow deficit
# ---------------------------------------------------------------------------


class TestAptDeficit:
    def test_noiseless_path_has_negligible_deficit(self):
        s = np.linspace(0.0, 4.0, 81)
        path = flow_path(saddle_field, [1.0, 1.0], s, h=1e-3)
        res = apt_deficit(path, saddle_field, T=1.0)
        assert res.n_excluded == 0
        assert float(np.max(res.deficits)) <= 1e-6

    def test_injected_jump_is_detected_absolutely(self):
        s = np.arange(10.0)
        X = np.tile([3.0, 4.0], (1, 10, 1))
        X[0, 5, 0] += 1.0
        deficits, _ = flow._batch_deficits(s, X, zero_field, 2.0, np.array([3]), 5e-3, "absolute")
        assert deficits[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_scale_normalization_divides_by_state_size(self):
        s = np.arange(10.0)
        X = np.tile([3.0, 4.0], (1, 10, 1))  # norm exactly 5
        X[0, 5, 0] += 1.0
        deficits, _ = flow._batch_deficits(s, X, zero_field, 2.0, np.array([3]), 5e-3, "scale")
        assert deficits[0, 0] == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_exact_exponential_decay_rate(self):
        s = np.arange(40.0)
        states = np.exp(-s)[:, None] * np.array([[1.0, 0.0]])
        path = TimeChangedPath(s, states)
        res = apt_deficit(path, zero_field, T=2.0, normalization="absolute")
        assert res.rates[0] == pytest.approx(-1.0, abs=1e-6)
        assert res.n_excluded == 0

    def test_escaping_restart_is_excluded(self):
        f = lambda x: x**2
        s = np.arange(8.0)
        X = np.full((1, 8, 1), 0.1)
        X[0, 3, 0] = 5.0  # flow from here escapes before T
        deficits, excluded = flow._batch_deficits(s, X, f, 1.0, np.array([1, 3]), 0.05, "absolute")
        assert excluded.sum() == 1
        assert np.isinf(deficits).any()

    def test_rows_of_a_batch_where_some_runs_escape_equal_each_run_alone(self):
        # x**2 escapes from 5 before T, and only run 1 holds 5 at s = 3: the
        # other runs keep that restart, and run 1's +inf there leaves its
        # rate NaN. Alone, run 1 excludes the restart, which is +inf too
        f = lambda x: x**2
        s = np.arange(8.0)
        X = np.stack([np.full((8, 1), 0.1), np.full((8, 1), 0.1), np.full((8, 1), 0.2)])
        X[1, 3, 0] = 5.0
        pos = np.array([1, 3])
        args = (f, 1.0, pos, 0.05, "absolute")
        batch, excluded = flow._batch_deficits(s, X, *args)
        assert not excluded.any()
        assert np.isinf(batch[1, 1])
        rates = flow._log_slopes(s[pos], np.array(batch, order="C"))  # two restarts: all fitted
        assert np.isnan(rates[1]) and np.isfinite(rates[[0, 2]]).all()
        for r in range(3):
            alone, alone_excluded = flow._batch_deficits(s, X[r : r + 1], *args)
            assert np.array_equal(batch[r], alone[0])
            assert alone_excluded.sum() == int(np.isinf(batch[r]).sum())
        # every run escaping at a restart excludes it from every run's fit
        X[:, 3, 0] = 5.0
        every, excluded = flow._batch_deficits(s, X, *args)
        assert excluded.sum() == 1
        assert np.isinf(every[:, 1]).all()

    def test_validation(self):
        s = np.arange(10.0)
        path = TimeChangedPath(s, np.zeros((10, 2)))
        with pytest.raises(ValueError, match="normalization"):
            apt_deficit(path, zero_field, T=1.0, normalization="bogus")
        with pytest.raises(ValueError, match="restart"):
            apt_deficit(path, zero_field, T=100.0)


def _rowwise_saddle(x):
    # elementwise, so every row is computed alone whatever the batch shape
    return x * np.array([1.0, -1.0])


def _sample_path(kind):
    if kind == "linear":
        model, sched = LinearModel([[1.0, 0.5], [0.2, -1.0]]), harmonic(3000)
        x0 = [0.05, 0.05]
    else:
        model = MeanFieldVrrwModel(VrrwConfig.complete(3, 2.0))
        sched, x0 = model.natural_schedule(3000), model.initial_state()
    traj = run(model, sched, x0, 3000, seed=5)
    idx = np.unique(np.geomspace(1, 3000, 300).astype(np.int64))
    return model, time_change(traj, indices=idx)


class TestStackedRestarts:
    """All restarts advance as one RK4 batch; each must equal its lone run."""

    @pytest.mark.parametrize("kind", ["linear", "vrrw"])
    def test_equals_one_restart_at_a_time(self, kind):
        model, path = _sample_path(kind)
        s, X = path.s_grid, path.states[None]
        pos = np.unique(np.geomspace(1, np.searchsorted(s, s[-1] - 1.0) - 1, 30).astype(int))
        full, _ = flow._batch_deficits(s, X, model.field, 1.0, pos, 5e-3, "scale")
        singles = [
            flow._batch_deficits(s, X, model.field, 1.0, pos[r : r + 1], 5e-3, "scale")[0]
            for r in range(len(pos))
        ]
        assert full.shape == (1, len(pos)) and len(pos) > 10
        assert np.array_equal(full, np.concatenate(singles, axis=1))

    def test_ensemble_rows_equal_one_restart_at_a_time(self):
        model, path = _sample_path("vrrw")
        s = path.s_grid
        # three "runs": the path and two vertex relabellings of it
        X = np.stack([path.states] + [np.roll(path.states, k, axis=1) for k in (1, 2)])
        pos = flow.restart_positions(s, 1.0, 48)
        stacked, excluded = flow._batch_deficits(s, X, model.field, 1.0, pos, 5e-3, "scale")
        for r in range(len(pos)):
            alone, _ = flow._batch_deficits(
                s, X, model.field, 1.0, pos[r : r + 1], 5e-3, "scale"
            )
            assert np.array_equal(stacked[:, r], alone[:, 0])
        assert not excluded.any()

    def test_rows_with_zero_duration_stay_put(self):
        seen = []

        def field(x):
            seen.append(len(x))
            return x**2

        x = np.array([[0.5, -0.25], [0.25, 0.1], [-0.0, np.inf]])
        dt = np.array([0.3, 0.1, 0.0])
        given = x.copy()
        out = flow._rk4_segment(field, given, dt, 0.05)
        singles = [flow._rk4_segment(field, row, float(d), 0.05) for row, d in zip(x, dt)]
        assert np.array_equal(out, np.array(singles))
        assert np.array_equal(given, x)  # the caller's states are not written
        assert np.array_equal(out[2], x[2]) and np.signbit(out[2, 0])
        assert 3 not in seen  # the field never sees the row that does not move

    def test_field_error_excludes_only_its_restart(self):
        def raising(x):
            if np.any(x[..., 0] > 2.5):
                raise SingularDenominatorError("left the field's domain")
            return _rowwise_saddle(x)

        # a coarse grid, then a fine one: the restart at s = 1 has the
        # longest window, and the flow from its state passes 2.5 at once
        s = np.concatenate([np.arange(0.0, 1.0, 0.25), 1.0 + np.arange(0.0, 2.0, 0.1)])
        states = np.full((len(s), 2), 0.1)
        states[4, 0] = 2.4
        X, pos = states[None], np.arange(5)
        ok, ok_excluded = flow._batch_deficits(s, X, _rowwise_saddle, 1.0, pos, 0.05, "scale")
        res, excluded = flow._batch_deficits(s, X, raising, 1.0, pos, 0.05, "scale")
        assert not ok_excluded.any()
        assert excluded.sum() == 1
        assert np.isinf(res[0, 4])
        others = pos != 4
        assert np.array_equal(res[0, others], ok[0, others])


# ---------------------------------------------------------------------------
# manifold attraction
# ---------------------------------------------------------------------------


class TestManifoldRate:
    def test_path_on_manifold_reports_minus_infinity(self):
        K = ManifoldK(basepoint=np.zeros(2), directions=np.array([[1.0], [0.0]]))
        states = np.linspace(0.1, 3.0, 30)[:, None] * np.array([[1.0, 0.0]])
        path = TimeChangedPath(np.arange(30.0), states)
        res = manifold_rate(path, K=K)
        assert res.rates[0] == float("-inf")

    def test_exact_exponential_attraction_slope(self):
        K = ManifoldK(basepoint=np.zeros(2), directions=np.array([[1.0], [0.0]]))
        s = np.arange(40.0)
        states = np.column_stack([np.full(40, 2.0), np.exp(-s)])
        res = manifold_rate(TimeChangedPath(s, states), K=K)
        assert res.rates[0] == pytest.approx(-1.0, abs=1e-3)

    def test_split_distance_uses_non_repulsive_block(self):
        split = split_jacobian(H_SADDLE)
        s = np.arange(30.0)
        states = np.column_stack([np.ones(30), 2.0 ** (-s)])
        res = manifold_rate(TimeChangedPath(s, states), split=split, x_star=[0.0, 0.0])
        assert res.rates[0] == pytest.approx(-np.log(2.0), abs=1e-9)

    def test_subfloor_distances_are_clamped_and_flagged(self):
        K = ManifoldK(basepoint=np.zeros(2), directions=np.array([[1.0], [0.0]]))
        off = np.exp(-np.arange(30.0))
        off[-1] = 1e-310
        states = np.column_stack([np.ones(30), off])
        res = manifold_rate(TimeChangedPath(np.arange(30.0), states), K=K)
        assert res.rates[0] < 0.0

    def test_requires_target_set(self):
        path = TimeChangedPath(np.arange(3.0), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="K or a split"):
            manifold_rate(path)
        with pytest.raises(ValueError, match="x_star"):
            manifold_rate(path, split=split_jacobian(H_SADDLE))

    @pytest.mark.parametrize("on_K", [(0, 1, 2, 3), (1, 3), (1,)])
    def test_runs_on_K_report_minus_infinity_and_count_in_the_median(self, on_K):
        # the second coordinate is the distance to K: 0 on K, else
        # exp(-(r + 1) s) in run r
        K = ManifoldK(basepoint=np.zeros(2), directions=np.array([[1.0], [0.0]]))
        s = np.arange(30.0)
        X = np.zeros((4, 30, 2))
        X[:, :, 0] = 1.0
        for r in set(range(4)) - set(on_K):
            X[r, :, 1] = np.exp(-(r + 1) * s)
        res = manifold_rate(TimeChangedPath(s, X), K=K)
        assert np.array_equal(np.isneginf(res.rates), np.isin(np.arange(4), on_K))
        off = res.rates[~np.isin(np.arange(4), on_K)]
        assert_allclose(off, -(np.array(sorted(set(range(4)) - set(on_K))) + 1.0), atol=1e-9)
        # the median counts the -inf rates: over (-1, -inf, -3, -4) it is
        # -3.5, where dropping them would give -3
        assert res.median == np.median(res.rates)
        assert res.median == {4: -np.inf, 2: -np.inf, 1: -3.5}[len(on_K)]
        for r in range(4):
            alone = manifold_rate(TimeChangedPath(s, X[r]), K=K)
            assert_allclose(alone.rates, res.rates[r : r + 1], rtol=1e-12)


# ---------------------------------------------------------------------------
# ensemble diagnostics
# ---------------------------------------------------------------------------


class RepulsiveOnlyNoise(LinearModel):
    """Saddle with noise on the repulsive coordinate only: the stable
    coordinate contracts deterministically."""

    def __init__(self):
        super().__init__(H_SADDLE, id="repulsive_only")

    def step_parts(self, x, n, raw, aux):
        g, eps, rem, aux = super().step_parts(x, n, raw, aux)
        eps[..., 1] = 0.0
        return g, eps, rem, aux


def _capture_grid(N, n=64):
    return tuple(np.unique(np.geomspace(1, N, n).astype(int)))


@pytest.fixture(scope="module")
def saddle_ensemble():
    N = 2000
    sched = harmonic(N)
    summary = monte_carlo(
        LinearModel(H_SADDLE),
        sched,
        [0.1, 0.1],
        N,
        n_runs=32,
        master_seed=99,
        captures=CaptureSpec(state_indices=_capture_grid(N)),
    )
    return summary, sched


class TestEnsembleDiagnostics:
    def test_manifold_rates_track_deterministic_contraction(self):
        # gamma_n = 0.5/n: x2(n) ~ n^{-1/2} exactly, clock s = 0.5 log n,
        # so log-distance falls with slope -1 against the clock in every run
        N = 2000
        sched = Schedule(
            gamma=SequenceSpec("power", exponent=1.0, scale=0.5),
            c=SequenceSpec("power", exponent=1.0),
            horizon=N,
        )
        summary = monte_carlo(
            RepulsiveOnlyNoise(),
            sched,
            [0.1, 0.1],
            N,
            n_runs=32,
            master_seed=99,
            captures=CaptureSpec(state_indices=_capture_grid(N)),
        )
        rates = ensemble_manifold_rate(summary, split=split_jacobian(H_SADDLE))
        assert rates.rates.shape == (32,)
        assert rates.median == pytest.approx(-1.0, abs=0.01)
        assert np.ptp(rates.rates) == pytest.approx(0.0, abs=1e-12)

    def test_apt_deficits_decay(self, saddle_ensemble):
        summary, _ = saddle_ensemble
        rates = ensemble_apt_deficit(summary, saddle_field, T=1.0)
        assert rates.median < -0.2

    def test_requires_captured_states(self):
        sched = harmonic(50)
        summary = monte_carlo(
            LinearModel(H_SADDLE), sched, [0.1, 0.1], 50, n_runs=4, master_seed=1
        )
        with pytest.raises(ValueError, match="captured states"):
            ensemble_manifold_rate(summary, split=split_jacobian(H_SADDLE))

    def test_median_ignores_nan_rates(self):
        from trapcheck.flow import EnsembleRates

        r = EnsembleRates(
            rates=np.array([np.nan, -1.0, -3.0]), t_values=np.arange(3.0), n_excluded=0
        )
        assert r.median == -2.0
        on_K = EnsembleRates(
            rates=np.array([np.nan, -np.inf, -1.0, -3.0]), t_values=np.arange(4.0), n_excluded=0
        )
        assert on_K.median == -3.0
        empty = EnsembleRates(
            rates=np.array([np.nan]), t_values=np.arange(1.0), n_excluded=0
        )
        assert np.isnan(empty.median)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(-1e300, 1e300), st.sampled_from([np.nan, -np.inf, 0.0, -0.0, 1.5]))))
def test_median_is_np_median_bit_for_bit(rates):
    from trapcheck.flow import EnsembleRates

    r = np.array(rates, dtype=np.float64)
    good = r[~np.isnan(r)]
    want = np.float64(np.median(good) if len(good) else np.nan)
    got = np.float64(EnsembleRates(rates=r, t_values=np.arange(1.0), n_excluded=0).median)
    assert got.view(np.int64) == want.view(np.int64)


# ---------------------------------------------------------------------------
# ensemble diagnostics read the capture in place
# ---------------------------------------------------------------------------


def _skewed_saddle(d):
    """A d-dimensional saddle in a skewed basis (one repulsive direction), so
    the split's P_inv is dense, and a K spanned by the stable directions."""
    rng = np.random.default_rng(d)
    S = np.eye(d) + 0.3 * rng.standard_normal((d, d))
    H = S @ np.diag(np.r_[1.0, -np.linspace(0.5, 2.0, d - 1)]) @ np.linalg.inv(S)
    K = ManifoldK(basepoint=np.full(d, 0.05), directions=S[:, 1:])
    return LinearModel(H), K


@pytest.fixture(scope="module", params=[2, 3, 5, 9])
def skewed_ensemble(request):
    d = request.param
    model, K = _skewed_saddle(d)
    N = 600
    sched = harmonic(N)
    summary = monte_carlo(
        model, sched, np.full(d, 0.1), N, n_runs=20, master_seed=d,
        captures=CaptureSpec(state_indices=_capture_grid(N, 96)),
    )
    return model, K, sched, summary


def _fit_window(pos):
    """The restarts of ``pos`` that the shadow deficit's rate is fitted over."""
    return pos[len(pos) - flow._tail_count(len(pos), flow.TAIL_FRACTION) :]


def _blown(summary, runs):
    blown = np.isin(np.arange(summary.n_runs), runs)
    return dataclasses.replace(summary, blown_up=blown)


def _frozen_tail_slopes(ts, ys, tail_fraction=1.0 / 3.0):
    """``flow._tail_slopes`` as it was written before it worked in place."""
    R = len(ts)
    if R < 2:
        return np.full(ys.shape[0], np.nan)
    k = min(R, max(2, int(np.ceil(R * tail_fraction))))
    sel = slice(R - k, R)
    with np.errstate(divide="ignore"):
        L = np.log(np.maximum(ys[:, sel], flow._DISTANCE_FLOOR))
    tc = ts[sel] - ts[sel].mean()
    denom = float(np.sum(tc**2))
    good = np.all(np.isfinite(L), axis=1)
    slopes = np.full(ys.shape[0], np.nan)
    if denom > 0 and good.any():
        Lg = L[good]
        slopes[good] = (Lg - Lg.mean(axis=1, keepdims=True)) @ tc / denom
    return slopes


def _whole_array(summary, sched):
    """The clock and a copy of the non-blown runs' states, as the diagnostics
    took them before they read the capture in place."""
    s = np.asarray(sched.partial_drift_sum(summary.capture_times.astype(np.float64)))
    return s, summary.captured_states[summary.ok]


def _same_bits(got, want):
    assert got.rates.shape == want.shape
    assert np.array_equal(got.rates.view(np.int64), want.view(np.int64))
    good = want[np.isfinite(want)]
    median = np.median(good) if len(good) else np.nan
    assert np.array_equal(np.float64(got.median).view(np.int64), median.view(np.int64))


class TestEnsembleDiagnosticsBits:
    @pytest.mark.parametrize("chunk", [1, 7, 1000])
    @pytest.mark.parametrize("blown", [(), (0, 3, 4, 11, 19)])
    @pytest.mark.parametrize("path", ["split", "K"])
    def test_manifold_rate_equals_whole_array(
        self, skewed_ensemble, monkeypatch, chunk, blown, path
    ):
        model, K, sched, summary = skewed_ensemble
        summary = _blown(summary, blown)
        if path == "split":
            kw = {"split": split_jacobian(model.H)}
        else:
            kw = {"K": K}
        s, X = _whole_array(summary, sched)
        dist = flow._distances_to_K(X, kw.get("K"), kw.get("split"), np.zeros(model.dim))
        want = _frozen_tail_slopes(s, dist)
        monkeypatch.setattr(flow, "_RUN_CHUNK", chunk)
        got = ensemble_manifold_rate(summary, **kw)
        assert np.isfinite(got.rates).sum() == summary.n_runs - len(blown)
        _same_bits(got, want)

    @pytest.mark.parametrize("blown", [(), (0, 3, 4, 11, 19)])
    def test_apt_equals_whole_array(self, skewed_ensemble, blown):
        model, _, sched, summary = skewed_ensemble
        summary = _blown(summary, blown)
        s, X = _whole_array(summary, sched)
        window = _fit_window(flow.restart_positions(s, 1.0, 48))
        deficits, hard = flow._batch_deficits(s, X, model.field, 1.0, window, 5e-3, "scale")
        want = _frozen_tail_slopes(s[window[~hard]], deficits[:, ~hard], tail_fraction=1.0)
        got = ensemble_apt_deficit(summary, model.field, T=1.0)
        assert np.isfinite(got.rates).sum() == summary.n_runs - len(blown)
        _same_bits(got, want)
        # the fit leaves the window's deficit matrix as the restarts computed it
        assert np.array_equal(got.t_values, s[window])
        assert np.array_equal(got.deficits, deficits)

    @pytest.mark.parametrize("blown", [(), (0, 3, 4, 11, 19)])
    def test_apt_deficit_rows_equal_each_run_alone(self, skewed_ensemble, blown):
        model, _, sched, summary = skewed_ensemble
        summary = _blown(summary, blown)
        s, X = _whole_array(summary, sched)
        got = ensemble_apt_deficit(summary, model.field, T=1.0)
        assert got.deficits.shape == (len(X), len(got.t_values))
        for row, rate, states in zip(got.deficits, got.rates, X):
            alone = apt_deficit(TimeChangedPath(s, states), model.field, T=1.0)
            assert np.array_equal(alone.t_values, got.t_values)
            assert np.array_equal(row, alone.deficits[0])
            # one matrix product fits every row, which rounds by batch size
            assert rate == pytest.approx(alone.rates[0], rel=1e-12)

    def test_every_run_blown_gives_no_rate(self, skewed_ensemble):
        model, K, _, summary = skewed_ensemble
        summary = _blown(summary, np.arange(summary.n_runs))
        for res in (
            ensemble_apt_deficit(summary, model.field, T=1.0),
            ensemble_manifold_rate(summary, K=K),
            ensemble_manifold_rate(summary, split=split_jacobian(model.H)),
        ):
            assert res.rates.shape == (0,)
            assert res.n_excluded == 0
            assert np.isnan(res.median)


def _escaping_stack():
    """Six runs on a 40-point clock under f = x**2, whose flow escapes from 5
    before T = 1.  The fit window restarts at s = 19, 21, .., 38: every kept
    run holds 5 at s = 23, so that restart is excluded, and run 1 alone holds
    5 at s = 31, so its rate is NaN.  Runs 2 and 4 are blown, with states no
    kept run has."""
    s = np.arange(40.0)
    X = 0.1 + 0.01 * np.random.default_rng(4).random((6, 40, 1))
    X[:, 23, 0] = 5.0
    X[1, 31, 0] = 5.0
    X[[2, 4], 5:] = np.nan
    ok = ~np.isin(np.arange(6), [2, 4])
    return TimeChangedPath(s, X), ok


class TestAptGroups:
    """Restarts integrated in groups of at most ``_APT_ROWS`` rows give the
    bits of one group holding them all."""

    @pytest.mark.parametrize(
        "rows",
        [lambda kept: kept, lambda kept: 3 * kept + 1, lambda kept: 16_384, lambda kept: 10**18],
        ids=["one-restart", "three-restarts", "default", "unbounded"],
    )
    def test_groups_change_no_bit(self, monkeypatch, rows):
        path, ok = _escaping_stack()
        f = lambda x: x**2
        monkeypatch.setattr(flow, "_APT_ROWS", 10**18)
        want = apt_deficit(path, f, T=1.0, normalization="absolute", ok=ok)
        assert want.n_excluded == 1 and {23.0, 31.0} <= set(want.t_values)
        assert np.isnan(want.rates[1]) and np.isfinite(np.delete(want.rates, 1)).all()
        monkeypatch.setattr(flow, "_APT_ROWS", rows(int(ok.sum())))
        got = apt_deficit(path, f, T=1.0, normalization="absolute", ok=ok)
        _same_rates(got, want)

    @pytest.mark.parametrize("blown", [(), (0, 3, 4, 11, 19)])
    def test_one_restart_per_group_on_an_ensemble(self, skewed_ensemble, monkeypatch, blown):
        model, _, _, summary = skewed_ensemble
        summary = _blown(summary, blown)
        monkeypatch.setattr(flow, "_APT_ROWS", 10**18)
        want = ensemble_apt_deficit(summary, model.field, T=1.0)
        monkeypatch.setattr(flow, "_APT_ROWS", 1)
        _same_rates(ensemble_apt_deficit(summary, model.field, T=1.0), want)


def _frozen_apt_deficit(path, f, T, normalization="scale", n_restarts=48, ok=None):
    """``flow.apt_deficit`` as it was before it integrated every run over
    the fit window only: every run at every restart, and each rate fitted
    over the last ``TAIL_FRACTION`` of the kept restarts.  The rates, the
    excluded restarts' count and the first kept run's CSV columns."""
    s = path.s_grid
    X = path.states.reshape((-1,) + path.states.shape[-2:])
    pos = flow.restart_positions(s, T, n_restarts)
    deficits, excluded = flow._batch_deficits(
        s, X, f, T, pos, flow._APT_STEP, normalization, ok
    )
    keep = ~excluded
    ts, ys = s[pos[keep]], deficits[:, keep]
    R = len(ts)
    k = flow._tail_count(R, flow.TAIL_FRACTION)
    rates = flow._log_slopes(ts[R - k :], np.array(ys[:, R - k :], order="C"))
    first = {"t": s[pos], "deficit": deficits[0]} if len(deficits) else None
    return rates, int(excluded.sum()), first


def _cubic(x):
    # elementwise, so every row is computed alone whatever the batch shape
    return x - x**3


@st.composite
def _stacks(draw):
    """A random stack of runs on a random clock, with blown runs (NaN from
    a random step on) when a mask is drawn, and the diagnostic's settings."""
    runs, K, d = draw(st.integers(1, 6)), draw(st.integers(6, 40)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = np.cumsum(rng.uniform(0.02, 0.4, K))
    X = rng.uniform(-1.5, 1.5, (runs, K, d))
    ok = draw(st.none() | st.lists(st.booleans(), min_size=runs, max_size=runs).map(np.array))
    if ok is not None:
        for r in np.nonzero(~ok)[0]:
            X[r, rng.integers(0, K) :] = np.nan
    kw = {
        "T": draw(st.sampled_from([0.3, 0.7, 1.5])),
        "normalization": draw(st.sampled_from(["scale", "absolute"])),
        "n_restarts": draw(st.integers(1, 48)),
        "ok": ok,
    }
    return TimeChangedPath(s, X), kw


class TestAptFitWindow:
    """Every run is integrated over the fit window only, and the restarts
    before it for the CSV run alone, when its row is read."""

    @settings(max_examples=80, deadline=None)
    @given(_stacks())
    def test_equals_every_restart_when_none_is_excluded(self, stack):
        path, kw = stack
        try:
            rates, n_excluded, first = _frozen_apt_deficit(path, _cubic, **kw)
        except InsufficientHorizonError:
            assume(False)
        assume(n_excluded == 0)
        got = apt_deficit(path, _cubic, **kw)
        assert np.array_equal(got.rates.view(np.int64), rates.view(np.int64))
        assert got.n_excluded == 0
        if first is None:
            assert got.first_run is None
            return
        assert got.first_run.keys() == first.keys()
        for key in first:
            assert np.array_equal(got.first_run[key].view(np.int64), first[key].view(np.int64))

    def test_a_restart_excluded_before_the_window_moves_no_fit(self):
        # run 1 leaves the field's domain at the first restart, which every
        # run then excluded; that restart lies before the fit window
        def f(x):
            if np.any(np.abs(x) > 2.5):
                raise SingularDenominatorError("left the field's domain")
            return -x

        s = np.arange(40.0)
        X = 0.1 + 0.01 * np.random.default_rng(5).random((3, 40, 1))
        X[1, 1, 0] = 3.0
        path = TimeChangedPath(s, X)
        pos = flow.restart_positions(s, 1.0, 16)
        window = _fit_window(pos)
        assert pos[0] == 1 and (len(pos), len(window)) == (13, 5)
        rates, n_excluded, first = _frozen_apt_deficit(path, f, T=1.0, n_restarts=16)
        got = apt_deficit(path, f, T=1.0, n_restarts=16)
        # it was counted and left run 0's CSV row +inf there, and the fit
        # read the last 4 of the 12 kept restarts
        assert n_excluded == 1 and np.isinf(first["deficit"][0])
        # the fit reads the last 5 restarts as placed, where none is excluded
        deficits, _ = flow._batch_deficits(s, X, f, 1.0, window, flow._APT_STEP, "scale")
        assert got.n_excluded == 0
        assert np.array_equal(got.rates, flow._log_slopes(s[window], np.array(deficits, order="C")))
        assert not np.array_equal(got.rates, rates)
        # run 0's CSV row holds its own deficit there, and every other bit
        assert np.isfinite(got.first_run["deficit"][0])
        assert np.array_equal(got.first_run["deficit"][1:], first["deficit"][1:])
        assert np.array_equal(got.first_run["t"], first["t"])

    def test_restarts_before_the_window_run_for_the_csv_run_alone(self):
        rows = []

        def counting(x):
            rows.append(len(x))
            return _rowwise_saddle(x)

        # run 0 is blown, so run 1 is the CSV run
        s = np.linspace(0.0, 10.0, 60)
        X = 0.1 + 0.01 * np.random.default_rng(6).random((5, 60, 2))
        X[0, 10:] = np.nan
        ok = np.arange(5) != 0
        pos = flow.restart_positions(s, 1.0, 48)
        window = _fit_window(pos)
        before = pos[: len(pos) - len(window)]
        assert len(before) > len(window)
        res = apt_deficit(TimeChangedPath(s, X), counting, 1.0, ok=ok)
        fitted = sum(rows)
        res.first_run, res.first_run  # read twice, built once
        csv = sum(rows) - fitted
        rows.clear()
        flow._batch_deficits(s, X, counting, 1.0, window, flow._APT_STEP, "scale", ok)
        assert fitted == sum(rows)
        rows.clear()
        flow._batch_deficits(s, X[1:2], counting, 1.0, before, flow._APT_STEP, "scale")
        assert csv == sum(rows) > 0


def _same_rates(got, want):
    """Equal rates (NaN included), deficits, exclusions and CSV columns."""
    assert np.array_equal(got.rates.view(np.int64), want.rates.view(np.int64))
    assert np.array_equal(got.deficits, want.deficits)
    assert np.array_equal(got.t_values, want.t_values)
    assert got.n_excluded == want.n_excluded
    assert got.first_run.keys() == want.first_run.keys()
    for key in want.first_run:
        assert np.array_equal(got.first_run[key], want.first_run[key])


@pytest.fixture(scope="module")
def wide_capture():
    """1000 runs with 1024 captured states each (16 MB): many chunks of runs,
    as on the benchmark's saddle."""
    N = 4096
    sched = harmonic(N)
    summary = monte_carlo(
        LinearModel(H_SADDLE), sched, [0.1, 0.1], N, n_runs=1000, master_seed=7,
        captures=CaptureSpec(state_indices=tuple(range(4, N + 1, 4))),
    )
    assert summary.captured_states.shape == (1000, 1024, 2)
    return summary, sched


class TestDiagnosticsMemory:
    @pytest.mark.parametrize("blown", [(), (5, 6, 150, 999)])
    def test_no_copy_of_the_capture(self, wide_capture, blown):
        summary, _ = wide_capture
        summary = _blown(summary, blown)
        half = summary.captured_states.nbytes / 2
        diagnostics = [
            lambda: ensemble_apt_deficit(summary, saddle_field, T=1.0),
            lambda: ensemble_manifold_rate(summary, split=split_jacobian(H_SADDLE)),
            lambda: ensemble_manifold_rate(
                summary,
                K=ManifoldK(basepoint=np.zeros(2), directions=np.array([[0.0], [1.0]])),
            ),
        ]
        for diagnostic in diagnostics:
            assert np.isfinite(diagnostic().rates).sum() == summary.n_runs - len(blown)
            assert traced_peak(diagnostic) < half

    @pytest.mark.parametrize("blown", [(), (5, 6, 150, 999)])
    def test_apt_integrates_a_bounded_group_of_rows(self, wide_capture, monkeypatch, blown):
        # the RK4 batch holds about 12 (rows, d) arrays of its own, and a
        # group of whole restarts holds at most _APT_ROWS rows: four
        # restarts of every run here
        summary, _ = wide_capture
        summary = _blown(summary, blown)
        monkeypatch.setattr(flow, "_APT_ROWS", 4 * summary.n_runs)
        d = summary.captured_states.shape[-1]
        apt = lambda: ensemble_apt_deficit(summary, saddle_field, T=1.0)
        res = apt()
        assert len(res.t_values) > 2 * (flow._APT_ROWS // summary.n_runs)  # 3 groups or more
        assert res.deficits.shape == (summary.n_runs - len(blown), len(res.t_values))
        assert traced_peak(apt) <= 13 * flow._APT_ROWS * d * 8 + res.deficits.nbytes

    def test_manifold_rate_fits_its_tail_in_place(self, wide_capture):
        # the tail of every run's distances, which the fit overwrites, and a
        # few arrays of one chunk of runs
        summary, _ = wide_capture
        R, d = summary.captured_states.shape[1:]
        tail = summary.n_runs * flow._tail_count(R, flow.TAIL_FRACTION) * 8
        manifold = lambda: ensemble_manifold_rate(summary, split=split_jacobian(H_SADDLE))
        manifold()
        assert traced_peak(manifold) <= tail + 4 * flow._RUN_CHUNK * R * d * 8
