"""Tests for flow integration, the drift clock, and the path diagnostics."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from trapcheck import flow
from trapcheck.engine import CaptureSpec, monte_carlo, run
from trapcheck.errors import (
    DegenerateTimeChangeError,
    DomainExitError,
    SingularDenominatorError,
)
from trapcheck.flow import (
    TimeChangedPath,
    apt_deficit,
    ensemble_apt_deficit,
    ensemble_manifold_rate,
    flow_path,
    integrate_flow,
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


class TestIntegrateFlow:
    def test_zero_field_is_identity(self):
        x0 = np.array([0.3, -1.2])
        assert_allclose(integrate_flow(zero_field, x0, h=1e-2, T=3.0), x0, rtol=0)

    def test_linear_saddle_matches_exponentials(self):
        out = integrate_flow(saddle_field, [1.0, 1.0], h=1e-3, T=0.5)
        assert_allclose(out, [np.exp(0.5), np.exp(-0.5)], rtol=1e-9)

    def test_step_halving_gains_fourth_order(self):
        # f(x) = x^2 from 1: phi_t(1) = 1/(1-t), exact value 2 at t = 0.5
        f = lambda x: x**2
        exact = 2.0
        e1 = abs(float(integrate_flow(f, [1.0], h=0.05, T=0.5)[0]) - exact)
        e2 = abs(float(integrate_flow(f, [1.0], h=0.025, T=0.5)[0]) - exact)
        assert e1 / e2 == pytest.approx(16.0, rel=0.2)

    def test_group_property(self):
        f = lambda x: np.stack([-x[..., 1], x[..., 0]], axis=-1)
        x0 = np.array([1.0, 0.25])
        direct = integrate_flow(f, x0, h=1e-3, T=0.7)
        staged = integrate_flow(f, integrate_flow(f, x0, h=1e-3, T=0.3), h=1e-3, T=0.4)
        assert np.max(np.abs(direct - staged)) <= 1e-9

    def test_batched_points_match_single(self):
        pts = np.array([[1.0, 1.0], [0.5, -0.25], [-2.0, 0.1]])
        batch = integrate_flow(saddle_field, pts, h=1e-3, T=0.3)
        singles = [integrate_flow(saddle_field, p, h=1e-3, T=0.3) for p in pts]
        assert_allclose(batch, np.array(singles), rtol=1e-12)

    def test_blowup_raises_domain_exit(self):
        f = lambda x: x**2
        with pytest.raises(DomainExitError):
            integrate_flow(f, [2.0], h=1e-3, T=1.0)  # exact escape time 0.5

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="h"):
            integrate_flow(zero_field, [1.0], h=0.0, T=1.0)
        with pytest.raises(ValueError, match="T"):
            integrate_flow(zero_field, [1.0], h=1e-2, T=-1.0)

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

    def test_non_increasing_grid(self):
        with pytest.raises(DegenerateTimeChangeError):
            TimeChangedPath(np.array([0.0, 1.0, 1.0]), np.zeros((3, 2)))

    def test_duration_spans_the_grid(self):
        path = TimeChangedPath(
            np.array([0.5, 1.0, 2.5]), np.array([[0.0, 0.0], [2.0, -4.0], [1.0, 1.0]])
        )
        assert path.duration == 2.0


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
        states = np.tile([3.0, 4.0], (10, 1))
        states[5, 0] += 1.0
        path = TimeChangedPath(s, states)
        res = apt_deficit(
            path, zero_field, T=2.0, t_grid=[s[3]], normalization="absolute"
        )
        assert res.deficits[0] == pytest.approx(1.0, abs=1e-15)

    def test_scale_normalization_divides_by_state_size(self):
        s = np.arange(10.0)
        states = np.tile([3.0, 4.0], (10, 1))  # norm exactly 5
        states[5, 0] += 1.0
        path = TimeChangedPath(s, states)
        res = apt_deficit(path, zero_field, T=2.0, t_grid=[s[3]])
        assert res.normalization == "scale"
        assert res.deficits[0] == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_exact_exponential_decay_rate(self):
        s = np.arange(40.0)
        states = np.exp(-s)[:, None] * np.array([[1.0, 0.0]])
        path = TimeChangedPath(s, states)
        res = apt_deficit(path, zero_field, T=2.0, normalization="absolute")
        assert res.rate == pytest.approx(-1.0, abs=1e-6)
        assert res.n_excluded == 0

    def test_escaping_restart_is_excluded(self):
        f = lambda x: x**2
        s = np.arange(8.0)
        states = np.full((8, 1), 0.1)
        states[3, 0] = 5.0  # flow from here escapes before T
        path = TimeChangedPath(s, states)
        res = apt_deficit(
            path, f, T=1.0, h=0.05, t_grid=[1.0, 3.0], normalization="absolute"
        )
        assert res.n_excluded == 1
        assert np.isinf(res.deficits).any()

    def test_validation(self):
        s = np.arange(10.0)
        path = TimeChangedPath(s, np.zeros((10, 2)))
        with pytest.raises(ValueError, match="normalization"):
            apt_deficit(path, zero_field, T=1.0, normalization="bogus")
        with pytest.raises(ValueError, match="t_grid"):
            apt_deficit(path, zero_field, T=5.0, t_grid=[8.0])
        with pytest.raises(ValueError, match="restart"):
            apt_deficit(path, zero_field, T=100.0)

    def test_to_csv_round_trip(self, tmp_path):
        s = np.arange(20.0)
        states = np.exp(-s)[:, None]
        res = apt_deficit(
            TimeChangedPath(s, states), zero_field, T=2.0, normalization="absolute"
        )
        out = tmp_path / "deficits.csv"
        res.to_csv(out)
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 0], res.t_values)
        assert np.array_equal(data[:, 1], res.deficits)


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
        s = path.s_grid
        ts = s[np.unique(np.geomspace(1, np.searchsorted(s, s[-1] - 1.0) - 1, 30).astype(int))]
        full = apt_deficit(path, model.field, T=1.0, t_grid=ts)
        singles = [apt_deficit(path, model.field, T=1.0, t_grid=[t]) for t in ts]
        assert len(full.deficits) == len(ts) > 10
        assert np.array_equal(full.deficits, np.concatenate([r.deficits for r in singles]))
        assert np.array_equal(full.t_values, np.concatenate([r.t_values for r in singles]))

    def test_ensemble_rows_equal_one_restart_at_a_time(self):
        model, path = _sample_path("vrrw")
        s = path.s_grid
        # three "runs": the path and two vertex relabellings of it
        X = np.stack([path.states] + [np.roll(path.states, k, axis=1) for k in (1, 2)])
        pos = flow._restart_positions(s, 1.0, None, 48)
        stacked, excluded = flow._batch_deficits(s, X, model.field, 1.0, pos, 5e-3, "scale")
        for r in range(len(pos)):
            alone, _ = flow._batch_deficits(
                s, X, model.field, 1.0, pos[r : r + 1], 5e-3, "scale"
            )
            assert np.array_equal(stacked[:, r], alone[:, 0])
        assert not excluded.any()

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
        path = TimeChangedPath(s, states)
        ts = s[:5]
        ok = apt_deficit(path, _rowwise_saddle, T=1.0, t_grid=ts, h=0.05)
        res = apt_deficit(path, raising, T=1.0, t_grid=ts, h=0.05)
        assert ok.n_excluded == 0
        assert res.n_excluded == 1
        assert np.isinf(res.deficits[4])
        others = np.arange(len(ts)) != 4
        assert np.array_equal(res.deficits[others], ok.deficits[others])


# ---------------------------------------------------------------------------
# manifold attraction
# ---------------------------------------------------------------------------


class TestManifoldRate:
    def test_path_on_manifold_reports_minus_infinity(self):
        K = ManifoldK(basepoint=np.zeros(2), directions=np.array([[1.0], [0.0]]))
        states = np.linspace(0.1, 3.0, 30)[:, None] * np.array([[1.0, 0.0]])
        path = TimeChangedPath(np.arange(30.0), states)
        res = manifold_rate(path, K=K)
        assert res.slope == float("-inf")
        assert not res.clamped

    def test_exact_exponential_attraction_slope(self):
        K = ManifoldK(basepoint=np.zeros(2), directions=np.array([[1.0], [0.0]]))
        s = np.arange(40.0)
        states = np.column_stack([np.full(40, 2.0), np.exp(-s)])
        res = manifold_rate(TimeChangedPath(s, states), K=K)
        assert res.slope == pytest.approx(-1.0, abs=1e-3)

    def test_split_distance_uses_non_repulsive_block(self):
        split = split_jacobian(H_SADDLE)
        s = np.arange(30.0)
        states = np.column_stack([np.ones(30), 2.0 ** (-s)])
        res = manifold_rate(TimeChangedPath(s, states), split=split, x_star=[0.0, 0.0])
        assert res.slope == pytest.approx(-np.log(2.0), abs=1e-9)

    def test_subfloor_distances_are_clamped_and_flagged(self):
        K = ManifoldK(basepoint=np.zeros(2), directions=np.array([[1.0], [0.0]]))
        off = np.exp(-np.arange(30.0))
        off[-1] = 1e-310
        states = np.column_stack([np.ones(30), off])
        res = manifold_rate(TimeChangedPath(np.arange(30.0), states), K=K)
        assert res.clamped
        assert res.slope < 0.0

    def test_requires_target_set(self):
        path = TimeChangedPath(np.arange(3.0), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="K or a split"):
            manifold_rate(path)
        with pytest.raises(ValueError, match="x_star"):
            manifold_rate(path, split=split_jacobian(H_SADDLE))

    def test_to_csv_includes_log_column(self, tmp_path):
        K = ManifoldK(basepoint=np.zeros(2), directions=np.array([[1.0], [0.0]]))
        s = np.arange(10.0)
        states = np.column_stack([np.ones(10), np.exp(-s)])
        res = manifold_rate(TimeChangedPath(s, states), K=K)
        out = tmp_path / "dist.csv"
        res.to_csv(out)
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape == (10, 3)
        assert_allclose(data[:, 2], np.log(data[:, 1]), rtol=1e-12)


# ---------------------------------------------------------------------------
# ensemble diagnostics
# ---------------------------------------------------------------------------


class RepulsiveOnlyNoise(LinearModel):
    """Saddle with noise on the repulsive coordinate only: the stable
    coordinate contracts deterministically."""

    def __init__(self):
        super().__init__(H_SADDLE, id="repulsive_only")

    def noise(self, x, n, raw):
        eps = super().noise(x, n, raw).copy()
        eps[..., 1] = 0.0
        return eps


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
        rates = ensemble_manifold_rate(
            summary, sched, split=split_jacobian(H_SADDLE), x_star=[0.0, 0.0]
        )
        assert rates.rates.shape == (32,)
        assert rates.median == pytest.approx(-1.0, abs=0.01)
        assert np.ptp(rates.rates) == pytest.approx(0.0, abs=1e-12)

    def test_apt_deficits_decay(self, saddle_ensemble):
        summary, sched = saddle_ensemble
        rates = ensemble_apt_deficit(summary, sched, saddle_field, T=1.0)
        assert rates.median < -0.2

    def test_requires_captured_states(self):
        sched = harmonic(50)
        summary = monte_carlo(
            LinearModel(H_SADDLE), sched, [0.1, 0.1], 50, n_runs=4, master_seed=1
        )
        with pytest.raises(ValueError, match="captured states"):
            ensemble_manifold_rate(summary, sched, split=split_jacobian(H_SADDLE),
                                   x_star=[0.0, 0.0])

    def test_median_ignores_nan_rates(self):
        from trapcheck.flow import EnsembleRates

        r = EnsembleRates(
            rates=np.array([np.nan, -1.0, -3.0]), t_values=np.arange(3.0), n_excluded=0
        )
        assert r.median == -2.0
        empty = EnsembleRates(
            rates=np.array([np.nan]), t_values=np.arange(1.0), n_excluded=0
        )
        assert np.isnan(empty.median)


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
            kw = {"split": split_jacobian(model.H), "x_star": np.zeros(model.dim)}
        else:
            kw = {"K": K}
        s, X = _whole_array(summary, sched)
        dist = flow._distances_to_K(X, kw.get("K"), kw.get("split"), kw.get("x_star"))
        want = _frozen_tail_slopes(s, dist)
        monkeypatch.setattr(flow, "_RUN_CHUNK", chunk)
        got = ensemble_manifold_rate(summary, sched, **kw)
        assert np.isfinite(got.rates).sum() == summary.n_runs - len(blown)
        _same_bits(got, want)

    @pytest.mark.parametrize("blown", [(), (0, 3, 4, 11, 19)])
    def test_apt_equals_whole_array(self, skewed_ensemble, blown):
        model, _, sched, summary = skewed_ensemble
        summary = _blown(summary, blown)
        s, X = _whole_array(summary, sched)
        pos = flow._restart_positions(s, 1.0, None, 48)
        deficits, hard = flow._batch_deficits(s, X, model.field, 1.0, pos, 5e-3, "scale")
        want = _frozen_tail_slopes(s[pos[~hard]], deficits[:, ~hard])
        got = ensemble_apt_deficit(summary, sched, model.field, T=1.0)
        assert np.isfinite(got.rates).sum() == summary.n_runs - len(blown)
        _same_bits(got, want)

    def test_every_run_blown_gives_no_rate(self, skewed_ensemble):
        model, K, sched, summary = skewed_ensemble
        summary = _blown(summary, np.arange(summary.n_runs))
        for res in (
            ensemble_apt_deficit(summary, sched, model.field, T=1.0),
            ensemble_manifold_rate(summary, sched, K=K),
            ensemble_manifold_rate(summary, sched, split=split_jacobian(model.H),
                                   x_star=np.zeros(model.dim)),
        ):
            assert res.rates.shape == (0,)
            assert np.isnan(res.median)


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
        summary, sched = wide_capture
        summary = _blown(summary, blown)
        half = summary.captured_states.nbytes / 2
        diagnostics = [
            # the RK4 batch holds about 17 (restarts, runs, d) arrays of its
            # own: 16 restarts keep them well below the bound on the copy
            lambda: ensemble_apt_deficit(summary, sched, saddle_field, T=1.0, n_restarts=16),
            lambda: ensemble_manifold_rate(summary, sched, split=split_jacobian(H_SADDLE),
                                           x_star=[0.0, 0.0]),
            lambda: ensemble_manifold_rate(
                summary, sched,
                K=ManifoldK(basepoint=np.zeros(2), directions=np.array([[0.0], [1.0]])),
            ),
        ]
        for diagnostic in diagnostics:
            assert np.isfinite(diagnostic().rates).sum() == summary.n_runs - len(blown)
            assert traced_peak(diagnostic) < half
