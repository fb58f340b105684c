from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import trapcheck.engine as engine
from trapcheck import (
    BlowUpError,
    CaptureSpec,
    InsufficientHorizonError,
    InsufficientRecordsError,
    LinearModel,
    MeanFieldVrrwModel,
    Model,
    Schedule,
    SequenceSpec,
    SyntheticModel,
    TrapInfo,
    VrrwConfig,
    VrrwWalkModel,
    combine_increment,
    control_models,
    empirical_increment_decomposition,
    monte_carlo,
    run,
)


def harmonic(horizon):
    return Schedule.from_config({"kind": "harmonic", "horizon": horizon})


class UnitNoiseModel(Model):
    """G = x, eps = 1, r = 0 (deterministic, for arithmetic examples)."""

    id = "unit_noise"
    dim = 1
    n_raw = 1

    def field(self, x):
        return x

    def noise(self, x, n, raw):
        return np.ones_like(x)


class SilentModel(Model):
    """G = f with f(x*) = 0, eps = 0, r = 0."""

    id = "silent"
    dim = 1
    n_raw = 0

    def field(self, x):
        return -x

    def noise(self, x, n, raw):
        return np.zeros_like(x)


class TestStep:
    """One step of the recursion, taken as a one-step run."""

    def test_frozen_schedule_is_identity(self):
        s = Schedule(
            gamma=SequenceSpec("const", value=0.0),
            c=SequenceSpec("const", value=0.0),
            horizon=10,
        )
        traj = run(UnitNoiseModel(), s, np.array([0.7]), 1, seed=0)
        assert np.array_equal(traj.states[1], [0.7])

    def test_hand_arithmetic(self):
        s = Schedule(
            gamma=SequenceSpec("const", value=0.1),
            c=SequenceSpec("const", value=0.1),
            horizon=10,
        )
        traj = run(UnitNoiseModel(), s, np.array([0.5]), 1, seed=0)
        assert traj.states[1, 0] == pytest.approx(0.65, abs=1e-16)
        assert traj.g[0, 0] == 0.5 and traj.eps[0, 0] == 1.0 and traj.rem[0, 0] == 0.0

    def test_beyond_horizon(self):
        with pytest.raises(InsufficientHorizonError):
            run(UnitNoiseModel(), harmonic(5), np.zeros(1), 6, seed=0)


class TestRun:
    def test_equilibrium_stays_fixed(self):
        traj = run(SilentModel(), harmonic(200), np.zeros(1), 200, seed=1)
        assert np.all(traj.states == 0.0)

    def test_same_seed_bitwise(self):
        m = LinearModel([[1.0]])
        s = harmonic(500)
        t1 = run(m, s, np.zeros(1), 500, seed=42)
        t2 = run(m, s, np.zeros(1), 500, seed=42)
        assert np.array_equal(t1.states, t2.states)
        assert np.array_equal(t1.eps, t2.eps)

    def test_reconstruction_residual_is_zero(self):
        m = LinearModel(np.diag([1.0, -1.0]), id="lin2")
        traj = run(m, harmonic(300), np.array([0.1, 0.2]), 300, seed=9)
        assert traj.reconstruction_residual() == 0.0

    def test_pieces_recorded_at_every_step(self):
        m = LinearModel(np.diag([1.0, -1.0]), id="lin2")
        traj = run(m, harmonic(128), np.zeros(2), 128, seed=0)
        assert traj.states.shape == (129, 2)
        for piece in (traj.g, traj.eps, traj.rem):
            assert piece.shape == (128, 2)

    def test_blowup_raises_with_prefix(self):
        m = LinearModel([[5.0]], noise_kind="none", id="explode")
        s = harmonic(1000)
        with pytest.raises(BlowUpError) as ei:
            run(m, s, np.ones(1), 1000, seed=0, blowup_bound=1e6)
        err = ei.value
        assert err.step > 0
        assert err.prefix.shape[1] == 1
        assert np.all(np.abs(err.prefix[:-1]) <= 1e6)
        assert np.abs(err.prefix[-1]) > 1e6

    def test_csv_round_trip(self, tmp_path):
        m = LinearModel(np.diag([1.0, -1.0]), id="lin2")
        traj = run(m, harmonic(50), np.array([0.1, 0.2]), 50, seed=3)
        p = tmp_path / "t.csv"
        traj.to_csv(p)
        header = p.read_text().splitlines()[0]
        assert header == "n,x_0,x_1,g_0,g_1,eps_0,eps_1,rem_0,rem_1"
        table = np.loadtxt(p, delimiter=",", skiprows=1)
        ns = table[:, 0].astype(int)
        assert np.array_equal(ns, np.arange(50))
        assert np.array_equal(table[:, 1:3], traj.states[ns])
        assert np.array_equal(table[:, 3:5], traj.g)


class TestMonteCarlo:
    def test_single_run_matches_run(self):
        m = LinearModel([[1.0]])
        s = harmonic(400)
        summary = monte_carlo(m, s, np.zeros(1), 400, 1, master_seed=77)
        traj = run(m, s, np.zeros(1), 400, seed=77)
        assert np.array_equal(summary.terminal_states[0], traj.states[-1])

    def test_worker_counts_identical(self):
        m = LinearModel(np.diag([1.0, -1.0]), id="lin2")
        s = harmonic(600)
        cap = CaptureSpec(
            state_indices=(1, 10, 100, 600), increment_indices=tuple(range(50, 66))
        )
        outs = [
            monte_carlo(m, s, np.array([0.0, 0.3]), 600, 24, master_seed=5,
                        workers=w, captures=cap)
            for w in (1, 4, 16)
        ]
        for other in outs[1:]:
            assert np.array_equal(outs[0].terminal_states, other.terminal_states)
            assert np.array_equal(outs[0].sup_tail_distance, other.sup_tail_distance)
            assert np.array_equal(outs[0].captured_states, other.captured_states)
            assert np.array_equal(outs[0].captured_eps, other.captured_eps)

    def test_sequential_equals_batch(self):
        m = LinearModel([[1.0]])
        s = harmonic(300)
        summary = monte_carlo(m, s, np.zeros(1), 300, 3, master_seed=11)
        for i in range(3):
            traj = run(m, s, np.zeros(1), 300, seed=engine._seed_for_run(11, i))
            assert np.array_equal(summary.terminal_states[i], traj.states[-1])

    def test_block_size_invariance(self, monkeypatch):
        m = LinearModel([[1.0]])
        s = harmonic(2500)  # crosses the default block boundary
        ref = monte_carlo(m, s, np.zeros(1), 2500, 4, master_seed=2)
        monkeypatch.setattr(engine, "_RAW_BLOCK", 64)
        alt = monte_carlo(m, s, np.zeros(1), 2500, 4, master_seed=2)
        assert np.array_equal(ref.terminal_states, alt.terminal_states)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_full_runs_equal_single_runs(self, workers):
        m = VrrwWalkModel(VrrwConfig.complete(3, 2.0))
        s = m.natural_schedule(700)
        cap = CaptureSpec(state_indices=(5, 700), full_runs=(4, 0, 2))
        summary = monte_carlo(
            m, s, m.initial_state(), 700, 6, master_seed=13, workers=workers, captures=cap
        )
        assert sorted(summary.full_runs) == [0, 2, 4]
        for i in (0, 2, 4):
            got = summary.trajectory(i)
            ref = run(m, s, m.initial_state(), 700, seed=engine._seed_for_run(13, i))
            for name in ("states", "g", "eps", "rem"):
                assert np.array_equal(getattr(got, name), getattr(ref, name))
        with pytest.raises(InsufficientRecordsError):
            summary.trajectory(1)

    def test_blown_full_run_raises_like_run(self):
        m = LinearModel([[5.0]], noise_kind="none", id="explode")
        s = harmonic(1000)
        summary = monte_carlo(m, s, np.ones(1), 1000, 2, master_seed=0,
                              captures=CaptureSpec(full_runs=(1,)))
        with pytest.raises(BlowUpError) as from_ensemble:
            summary.trajectory(1)
        with pytest.raises(BlowUpError) as from_run:
            run(m, s, np.ones(1), 1000, seed=engine._seed_for_run(0, 1))
        a, b = from_ensemble.value, from_run.value
        assert str(a) == str(b) and a.step == b.step
        assert np.array_equal(a.prefix, b.prefix)
        assert np.array_equal(a.state, b.state)

    def test_full_runs_must_exist(self):
        m = LinearModel([[1.0]])
        with pytest.raises(ValueError, match="full_runs"):
            monte_carlo(m, harmonic(10), np.zeros(1), 10, 2, master_seed=0,
                        captures=CaptureSpec(full_runs=(2,)))

    def test_degenerate_control_traps(self):
        m = control_models()["degenerate_noise"]
        s = harmonic(500)
        summary = monte_carlo(m, s, np.zeros(1), 500, 16, master_seed=0)
        assert summary.near_trap_fraction(1e-12) == 1.0
        assert summary.near_trap_fraction(1.0) == 1.0

    def test_blowups_flagged_and_excluded(self):
        m = LinearModel([[5.0]], noise_kind="none", id="explode")
        s = harmonic(1000)
        summary = monte_carlo(
            m, s, np.ones(1), 1000, 4, master_seed=0, blowup_bound=1e6
        )
        assert summary.blowup_count == 4
        assert not np.any(summary.ok)
        assert summary.near_trap_fraction(10.0) == 0.0

    def test_martingale_sanity(self):
        m = LinearModel([[1.0]])
        s = harmonic(256)
        cap = CaptureSpec(increment_indices=(100,))
        summary = monte_carlo(m, s, np.zeros(1), 256, 400, master_seed=123, captures=cap)
        mean_eps = summary.captured_eps.mean(axis=0)  # (n_captures, d)
        assert np.linalg.norm(mean_eps[0]) <= 4.0 / np.sqrt(400)

    def test_near_trap_at_uncaptured_time_raises(self):
        m = LinearModel([[1.0]])
        summary = monte_carlo(m, harmonic(100), np.zeros(1), 100, 4, master_seed=0)
        with pytest.raises(InsufficientRecordsError):
            summary.near_trap_fraction(0.1, t=50)

    def test_simplex_preserved_by_walk(self):
        cfg = VrrwConfig.complete(3, 2.0)
        m = VrrwWalkModel(cfg)
        s = m.natural_schedule(2000)
        traj = run(m, s, m.initial_state(), 2000, seed=4)
        sums = traj.states.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12
        assert traj.states.min() >= -1e-12


def _ensemble_case(kind, d, alpha, seed, N):
    """(model, schedule, x0) for one model kind of dimension ``d``."""
    if kind == "linear":
        H = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(d, d))
        m = LinearModel(H, id="lin")
        return m, harmonic(N), np.full(d, 0.1)
    if kind == "synthetic":
        m = SyntheticModel(dim=d, delta_plus=1 + seed % (d - 1))
        return m, harmonic(N), np.zeros(d)
    cls = VrrwWalkModel if kind == "vrrw_walk" else MeanFieldVrrwModel
    m = cls(VrrwConfig.complete(d, alpha))
    return m, m.natural_schedule(N), m.initial_state()


_DIMS = {"linear": (1, 3), "synthetic": (2, 4), "vrrw_walk": (2, 12), "vrrw_meanfield": (2, 12)}


class TestDeterminismProperty:
    """Run i alone equals row i of the ensemble under every chunking, with
    blocks small enough that every run crosses block edges, and draw tiles
    small enough that batches span several, the last one partly filled."""

    @pytest.mark.parametrize("kind", sorted(_DIMS))
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_rows_equal_lone_runs_for_any_worker_count(self, kind, data):
        d = data.draw(st.integers(*_DIMS[kind]), label="d")
        alpha = data.draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]), label="alpha")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        n_runs = data.draw(st.integers(3, 7), label="n_runs")
        N = 300
        m, s, x0 = _ensemble_case(kind, d, alpha, seed, N)
        with (
            mock.patch.object(engine, "_RAW_BLOCK", 64),
            mock.patch.object(engine, "_DRAW_TILE", 2),
        ):
            outs = [
                monte_carlo(m, s, x0, N, n_runs, master_seed=seed, workers=w)
                for w in (1, 2, 3)
            ]
            lone = [
                run(m, s, x0, N, seed=engine._seed_for_run(seed, i)).states[-1]
                for i in range(n_runs)
                if not outs[0].blown_up[i]
            ]
        for other in outs[1:]:
            assert np.array_equal(outs[0].terminal_states, other.terminal_states)
            assert np.array_equal(outs[0].sup_tail_distance, other.sup_tail_distance)
            assert np.array_equal(outs[0].blown_up, other.blown_up)
        assert np.array_equal(outs[0].terminal_states[outs[0].ok], np.array(lone).reshape(-1, d))


class JumpModel(Model):
    """x stays 0 until step ``k``, where the step's draw sends it to NaN,
    +inf, exactly ``bound``, the next double above ``bound``, or 1; after
    that it drifts down by the draw each step (unit schedule, so
    ``X_{k+1}`` is the target exactly)."""

    id = "jump"
    dim = 1
    n_raw = 1
    k = 40
    bound = 1e6
    targets = (np.nan, np.inf, bound, np.nextafter(bound, np.inf), 1.0)

    def field(self, x):
        return np.zeros_like(x)

    def noise(self, x, n, raw):
        if n < self.k:
            return np.zeros_like(raw)
        if n > self.k:
            return -raw
        return np.asarray(self.targets)[(raw * len(self.targets)).astype(np.int64)]


class TestBlowupGuard:
    def test_rows_blow_up_exactly_by_the_rule(self):
        m = JumpModel()
        N, n_runs, seed = 100, 24, 3
        s = Schedule(
            gamma=SequenceSpec("const", value=1.0),
            c=SequenceSpec("const", value=1.0),
            horizon=N,
        )
        summary = monte_carlo(m, s, np.zeros(1), N, n_runs, master_seed=seed,
                              blowup_bound=m.bound)
        # which target each row hits: its stream's draw at step k
        which = np.array([
            int(np.random.Generator(np.random.Philox(engine._seed_for_run(seed, i)))
                .random((N, 1))[m.k, 0] * len(m.targets))
            for i in range(n_runs)
        ])
        assert set(which) == set(range(len(m.targets)))  # every case is exercised
        blown = which < 2  # NaN and +inf
        blown |= which == 3  # one ulp above the bound; exactly the bound is not out
        assert np.array_equal(summary.blown_up, blown)
        assert np.array_equal(summary.blowup_step, np.where(blown, m.k + 1, 0))
        for i in range(n_runs):
            if blown[i]:
                with pytest.raises(BlowUpError) as ei:
                    run(m, s, np.zeros(1), N, seed=engine._seed_for_run(seed, i),
                        blowup_bound=m.bound)
                assert ei.value.step == m.k + 1
            else:
                traj = run(m, s, np.zeros(1), N, seed=engine._seed_for_run(seed, i),
                           blowup_bound=m.bound)
                assert np.array_equal(traj.states[-1], summary.terminal_states[i])
                assert traj.states[m.k + 1, 0] == m.targets[which[i]]


class OffsetTrapModel(LinearModel):
    """A repulsive linear model whose declared trap is off the origin, so
    the tail distance subtracts a point with nonzero coordinates."""

    def __init__(self, d):
        super().__init__(0.5 * np.eye(d))
        x_star = np.linspace(-0.3, 0.45, d)
        self.trap = TrapInfo(x_star=x_star, jacobian=self.H.copy())


class TestTailDistance:
    @pytest.mark.parametrize("d", range(1, 13))
    def test_sup_equals_norm_of_every_tail_state(self, d):
        # from d = 8 on, np.linalg.norm adds pairwise; the column form must
        # add in the same order
        model, N, n_runs = OffsetTrapModel(d), 200, 16
        sched = harmonic(N)
        x0 = np.linspace(0.2, -0.3, d)
        every = CaptureSpec(state_indices=tuple(range(N + 1)))
        free = monte_carlo(model, sched, x0, N, n_runs, master_seed=d, captures=every)
        # a bound between the runs' largest excursions blows some up: those
        # rows are parked at the trap and stay there
        peaks = np.abs(free.captured_states).max(axis=(1, 2))
        bound = float(np.median(peaks))
        summary = monte_carlo(model, sched, x0, N, n_runs, master_seed=d,
                              captures=every, blowup_bound=bound)
        assert 0 < summary.blowup_count < n_runs
        tail = summary.captured_states[:, summary.tail_from :]
        dist = np.linalg.norm(tail - model.trap.x_star, axis=2)
        want = np.maximum.reduce(dist, axis=1, initial=0.0)
        got = summary.sup_tail_distance
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_blown_rows_stay_parked(self, workers):
        model, N, n_runs, d = OffsetTrapModel(3), 200, 16, 3
        sched = harmonic(N)
        x0 = np.linspace(0.2, -0.3, d)
        free = monte_carlo(model, sched, x0, N, n_runs, master_seed=5)
        bound = float(np.median(np.abs(free.terminal_states).max(axis=1)))
        summary = monte_carlo(model, sched, x0, N, n_runs, master_seed=5,
                              blowup_bound=bound, workers=workers)
        blown = summary.blown_up
        assert 0 < blown.sum() < n_runs
        assert np.array_equal(summary.terminal_states[blown],
                              np.broadcast_to(model.trap.x_star, (blown.sum(), d)))
        for i in np.nonzero(~blown)[0]:
            traj = run(model, sched, x0, N, seed=engine._seed_for_run(5, i),
                       blowup_bound=bound)
            assert np.array_equal(summary.terminal_states[i], traj.states[-1])


class TestDecomposition:
    def test_silent_model_parts_vanish(self):
        traj = run(SilentModel(), harmonic(100), np.array([0.5]), 100, seed=0)
        dec = empirical_increment_decomposition(traj)
        assert np.all(dec.martingale == 0.0)
        assert np.all(dec.remainder == 0.0)

    def test_hand_arithmetic_parts(self):
        s = Schedule(
            gamma=SequenceSpec("const", value=0.1),
            c=SequenceSpec("const", value=0.1),
            horizon=1,
        )
        traj = run(UnitNoiseModel(), s, np.array([0.5]), 1, seed=0)
        dec = empirical_increment_decomposition(traj)
        assert dec.drift[0, 0] == pytest.approx(0.05, abs=1e-17)
        assert dec.martingale[0, 0] == pytest.approx(0.1, abs=1e-17)
        assert dec.remainder[0, 0] == 0.0

    def test_reconstruction_identity_exact(self):
        m = LinearModel(np.diag([1.0, -1.0]), id="lin2")
        traj = run(m, harmonic(500), np.array([0.2, -0.1]), 500, seed=8)
        dec = empirical_increment_decomposition(traj)
        assert np.array_equal(traj.states[:-1] + dec.combined, traj.states[1:])

    def test_cumulative_martingale(self):
        m = LinearModel([[1.0]])
        traj = run(m, harmonic(50), np.zeros(1), 50, seed=1)
        dec = empirical_increment_decomposition(traj)
        assert dec.martingale_cumsum.shape == (51, 1)
        assert np.all(dec.martingale_cumsum[0] == 0.0)
        assert_allclose(dec.martingale_cumsum[-1], dec.martingale.sum(axis=0), rtol=1e-12)


def test_combine_increment_is_the_canonical_expression():
    g, eps, rem = np.array([2.0]), np.array([3.0]), np.array([5.0])
    assert combine_increment(0.5, g, 0.25, eps, rem) == pytest.approx(3.0)
