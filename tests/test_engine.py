import concurrent.futures
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    canonical_json,
    combine_increment,
    control_models,
    monte_carlo,
    run,
)
from trapcheck.models import _sq_norms

from conftest import InProcessPool, rule_means, traced_peak


def harmonic(horizon):
    spec = SequenceSpec("power", exponent=1.0)
    return Schedule(spec, spec, horizon)


class UnitNoiseModel(Model):
    """G = x, eps = 1, r = 0 (deterministic, for arithmetic examples)."""

    id = "unit_noise"
    dim = 1
    n_raw = 1

    def field(self, x):
        return x

    def step_parts(self, x, n, raw, aux):
        return self.field(x), np.ones_like(x), np.zeros_like(x), aux


class SilentModel(Model):
    """G = f with f(x*) = 0, eps = 0, r = 0."""

    id = "silent"
    dim = 1
    n_raw = 0

    def field(self, x):
        return -x

    def step_parts(self, x, n, raw, aux):
        return self.field(x), np.zeros_like(x), np.zeros_like(x), aux


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
            state_indices=(1, 10, 100, 600),
            increment_indices=tuple(range(50, 66)),
            statistics=(
                (None, None), (((0.5, -1.25),), 2.0), (((1.0, 0.0), (0.3, 2.0)), None),
                (None, 1.5),
            ),
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
            assert np.array_equal(outs[0].noise_means, other.noise_means)
            assert np.array_equal(outs[0].noise_counts, other.noise_counts)

    def test_pool_starts_one_process_per_chunk(self):
        # the executor forks all its processes at the first submit, so a
        # pool sized by workers forks 64 for these 4 runs; this one runs each
        # task in-process and records the size asked for.  Without noise
        # statistics the increment steps keep nothing, and the runs pool
        sizes = []

        class SizedPool(InProcessPool):
            def __init__(self, max_workers):
                sizes.append(max_workers)

        m = LinearModel(np.diag([1.0, -1.0]), id="lin2")
        s = harmonic(300)
        cap = CaptureSpec(state_indices=(1, 300), increment_indices=(5, 6), full_runs=(3,),
                          statistics=())
        args = (m, s, np.array([0.0, 0.3]), 300, 4)
        ref = monte_carlo(*args, master_seed=5, workers=1, captures=cap)
        with mock.patch.object(concurrent.futures, "ProcessPoolExecutor", SizedPool):
            got = monte_carlo(*args, master_seed=5, workers=64, captures=cap)
        assert sizes == [4]
        assert (ref.chunks, got.chunks) == (1, 4)
        assert got.noise_means is None and ref.noise_means is None
        assert canonical_json(got.to_dict(1e-2)) == canonical_json(ref.to_dict(1e-2))
        names = ("terminal_states", "sup_tail_distance", "captured_states")
        for name in names:
            assert np.array_equal(getattr(got, name), getattr(ref, name))
        assert np.array_equal(got.trajectory(3).states, ref.trajectory(3).states)

    def test_noise_statistics_keep_one_batch(self):
        # a capture that keeps noise statistics reduces them as one batch
        # goes, at any worker count: no pool is started
        class NoPool:
            def __init__(self, max_workers):
                raise AssertionError("a capture with noise statistics started a pool")

        m = LinearModel(np.diag([1.0, -1.0]), id="lin2")
        s = harmonic(300)
        cap = CaptureSpec(state_indices=(1, 300), increment_indices=tuple(range(5, 140)),
                          full_runs=(0, 3), statistics=((None, None), (((0.5, -1.25),), 2.0)))
        args = (m, s, np.array([0.0, 0.3]), 300, 6)
        ref = monte_carlo(*args, master_seed=5, workers=1, captures=cap)
        with mock.patch.object(concurrent.futures, "ProcessPoolExecutor", NoPool):
            got = monte_carlo(*args, master_seed=5, workers=64, captures=cap)
        assert got.chunks == ref.chunks == 1
        assert canonical_json(got.to_dict(1e-2)) == canonical_json(ref.to_dict(1e-2))
        names = ("terminal_states", "sup_tail_distance", "blowup_step", "captured_states",
                 "noise_means", "noise_counts")
        for name in names:
            assert np.array_equal(getattr(got, name), getattr(ref, name))
        assert got.noise_means.shape == (2, 135)
        assert sorted(got.full_runs) == [0, 3]
        for i in (0, 3):
            for part in ("states", "g", "eps", "rem"):
                assert np.array_equal(getattr(got.trajectory(i), part),
                                      getattr(ref.trajectory(i), part))

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
        cap = CaptureSpec(full_runs=tuple(range(400)))
        summary = monte_carlo(m, s, np.zeros(1), 256, 400, master_seed=123, captures=cap)
        mean_eps = np.mean([summary.trajectory(i).eps[100] for i in range(400)], axis=0)
        assert np.linalg.norm(mean_eps) <= 4.0 / np.sqrt(400)

    @pytest.mark.parametrize(
        "spec, match",
        [
            (CaptureSpec(state_indices=(0, 11)), r"state capture indices must lie in \[0, 10\]"),
            (CaptureSpec(state_indices=(-1,)), r"state capture indices must lie in \[0, 10\]"),
            (CaptureSpec(increment_indices=(10,)), r"increment capture indices must lie in \[0, 9\]"),
            (CaptureSpec(increment_indices=(-1, 3)), r"increment capture indices must lie in \[0, 9\]"),
            (CaptureSpec(full_runs=(-1, 0)), "full_runs must be nonnegative"),
        ],
    )
    def test_capture_indices_out_of_range(self, spec, match):
        with pytest.raises(ValueError, match=match):
            CaptureSpec.normalize(spec, 10)
        with pytest.raises(ValueError, match=match):
            monte_carlo(LinearModel([[1.0]]), harmonic(10), np.zeros(1), 10, 2, master_seed=0,
                        captures=spec)

    def test_a_normalized_spec_is_not_copied_again(self):
        N = 200_000
        spec = CaptureSpec.normalize(
            CaptureSpec(state_indices=(N, 0, 7), increment_indices=range(N // 10, N),
                        full_runs=(1, 0, 1)),
            N,
        )
        assert CaptureSpec.normalize(spec, N) is spec
        assert traced_peak(lambda: CaptureSpec.normalize(spec, N)) < 1024
        # it is still checked against the horizon it is given
        with pytest.raises(ValueError, match=r"state capture indices must lie in \[0, 100\]"):
            CaptureSpec.normalize(spec, 100)
        small = CaptureSpec.normalize(CaptureSpec(state_indices=(9, 3), increment_indices=(4, 2)), 10)
        summary = monte_carlo(LinearModel([[1.0]]), harmonic(10), np.zeros(1), 10, 2,
                              master_seed=0, captures=small)
        assert summary.capture_times is small.state_indices
        assert summary.increment_indices is small.increment_indices

    @pytest.mark.parametrize("n_runs, workers, match", [(0, 1, "n_runs"), (2, 0, "workers")])
    def test_run_and_worker_counts_must_be_positive(self, n_runs, workers, match):
        with pytest.raises(ValueError, match=match):
            monte_carlo(LinearModel([[1.0]]), harmonic(10), np.zeros(1), 10, n_runs,
                        master_seed=0, workers=workers)

    def test_simplex_preserved_by_walk(self):
        cfg = VrrwConfig.complete(3, 2.0)
        m = VrrwWalkModel(cfg)
        s = m.natural_schedule(2000)
        traj = run(m, s, m.initial_state(), 2000, seed=4)
        sums = traj.states.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12
        assert traj.states.min() >= -1e-12


def _two_draw_blocks(n_raw, B, tile, dtype):
    """Two blocks of draws in a row, the second, shorter one continuing
    every stream in a prefix of one buffer with one tile, as ``_drive``
    keeps them; and the 8 doubles per stream they come from."""
    gens = engine._generators(7, range(B))
    out = np.full((5, B, n_raw), np.nan).astype(dtype)  # True, in a bool buffer
    scratch = np.full(min(tile, B) * 5 * n_raw, np.nan)
    with mock.patch.object(engine, "_DRAW_TILE", tile):
        got = []
        for length in (5, 3):
            engine._draw_block(gens, out[:length], scratch)
            got.append(out[:length].copy())
    want = np.stack([g.random((8, n_raw)) for g in engine._generators(7, range(B))], axis=1)
    return np.concatenate(got), want


class TestDrawBlock:
    @pytest.mark.parametrize("tile", [2, 128])
    @pytest.mark.parametrize("B", [1, 127, 128, 129, 300])
    @pytest.mark.parametrize("n_raw", [0, 1, 2, 3])
    def test_equals_stacked_per_generator_draws(self, n_raw, B, tile):
        got, want = _two_draw_blocks(n_raw, B, tile, np.float64)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("tile", [2, 128])
    @pytest.mark.parametrize("B", [1, 127, 128, 129, 300])
    @pytest.mark.parametrize("n_raw", [0, 1, 2, 3])
    def test_bool_buffer_holds_the_halves_of_the_stacked_draws(self, n_raw, B, tile):
        # a sign-only model's buffer: u >= 0.5 of the same draws, one byte
        # each, and the streams go on as they would after doubles
        got, want = _two_draw_blocks(n_raw, B, tile, bool)
        assert got.dtype == bool and np.array_equal(got, want >= 0.5)


class TestWorkingMemory:
    def test_one_draw_block_at_a_time(self):
        # the draw buffer, one byte per sign, and the transpose tile are
        # allocated once and refilled; the runs' 1000 generators are counted
        # apart
        model, n_runs = LinearModel(np.diag([1.0, -1.0])), 1000
        assert model.n_raw == 2 and model.raw_dtype == np.bool_
        N = 3 * engine._RAW_BLOCK
        s = harmonic(N)
        s.gamma_values, s.c_values  # the schedule's arrays, built before the trace
        # and what a first ensemble in the process imports, so the bound
        # holds whichever tests ran before
        monte_carlo(model, s, [0.1, 0.1], N, 2, master_seed=3)
        block = engine._RAW_BLOCK * n_runs * model.n_raw
        tile = engine._DRAW_TILE * engine._RAW_BLOCK * model.n_raw * 8
        gens = traced_peak(lambda: engine._generators(3, range(n_runs)))
        peak = traced_peak(lambda: monte_carlo(model, s, [0.1, 0.1], N, n_runs, master_seed=3))
        assert peak - gens <= block + tile + 2**20


# distances: wide spreads, subnormals, and ties among a few values
_DISTANCES = st.one_of(
    st.floats(0.0, 1.7e308),
    st.floats(0.0, 1e-305),
    st.sampled_from([0.0, 5e-324, 1.0, 2.5, np.inf]),
)


class TestDistanceQuantiles:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_DISTANCES, min_size=1, max_size=40))
    def test_equal_np_quantile_bit_for_bit(self, values):
        a = np.array(values)
        srt = np.sort(a)
        for q in engine._DISTANCE_LEVELS:
            with np.errstate(invalid="ignore"):  # inf - inf, as the port does silently
                want = np.float64(np.quantile(a, q))
            assert np.float64(engine._quantile(srt, q)).view(np.int64) == want.view(np.int64)

    def test_summary_reads_its_unblown_runs(self):
        m = LinearModel([[1.0]])
        summary = monte_carlo(m, harmonic(50), np.zeros(1), 50, 9, master_seed=4)
        for blown in ((), (0, 4), tuple(range(9))):
            part = dataclasses.replace(summary, blown_up=np.isin(np.arange(9), blown))
            dist = part.terminal_distances()[part.ok]
            want = {f"{q:g}": float(np.quantile(dist, q)) if len(dist) else float("nan")
                    for q in engine._DISTANCE_LEVELS}
            got = part.distance_quantiles()
            assert got.keys() == want.keys()
            assert np.array_equal(list(got.values()), list(want.values()), equal_nan=True)


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


def _lone_eps(model, schedule, x0, N, seed, i):
    """Run ``i`` of ``seed`` alone: its eps at every step, also past a blow-up."""
    gens = engine._generators(seed, [i])
    res = engine._drive(model, schedule, x0, N, gens, tail_from=N + 1, capture=CaptureSpec(),
                        blowup_bound=engine.DEFAULT_BLOWUP_BOUND, keep=(0,))
    return res["kept"][1][1, 0]


_DIMS = {"linear": (1, 10), "synthetic": (2, 4), "vrrw_walk": (2, 12), "vrrw_meanfield": (2, 12)}


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
        rows = np.linspace(-1.0, 2.0, 2 * d).reshape(2, d)
        key = tuple(map(tuple, rows.tolist()))
        inc = (0, 63, 64, 299)
        stats = ((None, None), (key, None), (None, 1.5), (key, 2.0))
        cap = CaptureSpec(state_indices=(0, 150, 300), increment_indices=inc, statistics=stats)
        with (
            mock.patch.object(engine, "_RAW_BLOCK", 64),
            mock.patch.object(engine, "_DRAW_TILE", 2),
        ):
            outs = [
                monte_carlo(m, s, x0, N, n_runs, master_seed=seed, workers=w, captures=cap)
                for w in (1, 2, 3)
            ]
            lone = [
                run(m, s, x0, N, seed=engine._seed_for_run(seed, i))
                for i in range(n_runs)
                if not outs[0].blown_up[i]
            ]
            lone_eps = np.array([_lone_eps(m, s, x0, N, seed, i)[list(inc)] for i in range(n_runs)])
        for other in outs[1:]:
            assert np.array_equal(outs[0].terminal_states, other.terminal_states)
            assert np.array_equal(outs[0].sup_tail_distance, other.sup_tail_distance)
            assert np.array_equal(outs[0].blown_up, other.blown_up)
            assert np.array_equal(outs[0].captured_states, other.captured_states)
            # a step after every run blew up has no mean: NaN in each
            assert np.array_equal(outs[0].noise_means, other.noise_means, equal_nan=True)
            assert np.array_equal(outs[0].noise_counts, other.noise_counts)
        for out in outs:
            assert out.noise_means.flags.c_contiguous
            assert out.captured_states.flags.c_contiguous
        ok = outs[0].ok
        assert np.array_equal(
            outs[0].terminal_states[ok], np.array([t.states[-1] for t in lone]).reshape(-1, d)
        )
        # the step means are those of the lone runs' norms, each run counted
        # before its blow-up step
        b = outs[0].blowup_step
        norms = {None: _sq_norms(lone_eps), key: _sq_norms(lone_eps @ rows.T)}
        for got, (k, power) in zip(outs[0].noise_means, stats):
            want = rule_means(norms[k], inc, b, power, k is not None)
            assert np.array_equal(got, want, equal_nan=True)
        live = (b == 0)[:, None] | (np.array(inc) < b[:, None])
        assert np.array_equal(outs[0].noise_counts, live.sum(axis=0))
        assert np.array_equal(np.isnan(outs[0].noise_means).any(axis=0), outs[0].noise_counts == 0)


class _DoubleDrawLinear(LinearModel):
    """The linear model as it drew before its bool draws: one double per
    sign in the engine's buffer, and the copysign formula on it."""

    raw_dtype = np.float64

    def step_parts(self, x, n, raw, aux):
        eps = np.copysign(1.0, raw - 0.5)
        if self.noise_kind == "stable_only":
            eps[..., : self.unstable_dims] = 0.0
        if self.remainder_kind == "inv_sqrt":
            rem = np.full(x.shape, 1.0 / np.sqrt(n + 1.0))
        else:
            rem = np.zeros(x.shape)
        return self.field(x), eps, rem, aux


class _DoubleDrawSynthetic(SyntheticModel):
    """The synthetic saddle as it drew before its bool draws."""

    raw_dtype = np.float64

    def step_parts(self, x, n, raw, aux):
        return self.field(x), np.copysign(1.0, raw - 0.5), np.zeros(x.shape), aux


class TestSignDraws:
    """The sign-only models draw one byte per sign, with every bit of the
    ensemble they gave on a buffer of doubles."""

    @pytest.mark.parametrize(
        "args",
        [
            ("linear", [[1.0, 0.5], [0.0, -2.0]], {}),
            ("linear", np.diag([1.0, -1.0]), {"noise_kind": "stable_only"}),
            ("linear", [[4.0]], {"remainder_kind": "inv_sqrt"}),  # some runs blow up
            ("synthetic", None, {"dim": 3, "delta_plus": 2}),
        ],
        ids=["rademacher", "stable_only", "inv_sqrt", "synthetic"],
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_summary_equals_the_double_draws(self, args, workers):
        kind, H, kw = args
        new, old = (
            (LinearModel(H, **kw), _DoubleDrawLinear(H, **kw)) if kind == "linear"
            else (SyntheticModel(**kw), _DoubleDrawSynthetic(**kw))
        )
        assert new.raw_dtype == np.bool_
        N, d = 600, new.dim
        cap = CaptureSpec(state_indices=(0, 300, 600), increment_indices=(0, 255, 256, 599),
                          full_runs=(0, 4))
        x0 = np.full(d, 0.1)
        with mock.patch.object(concurrent.futures, "ProcessPoolExecutor", InProcessPool):
            got, want = (monte_carlo(m, harmonic(N), x0, N, 7, master_seed=11, workers=workers,
                                     captures=cap) for m in (new, old))
        if "remainder_kind" in kw:
            assert got.blowup_count
        assert canonical_json(got.to_dict()) == canonical_json(want.to_dict())
        for name in ("terminal_states", "sup_tail_distance", "blowup_step", "captured_states",
                     "noise_means", "noise_counts"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a.view(np.uint8), b.view(np.uint8))
        for r in (0, 4):
            for a, b in zip(got.full_runs[r].__dict__.values(), want.full_runs[r].__dict__.values()):
                if isinstance(a, np.ndarray):
                    assert np.array_equal(a.view(np.uint8), b.view(np.uint8))


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

    def step_parts(self, x, n, raw, aux):
        if n < self.k:
            eps = np.zeros_like(raw)
        elif n > self.k:
            eps = -raw
        else:
            eps = np.asarray(self.targets)[(raw * len(self.targets)).astype(np.int64)]
        return self.field(x), eps, np.zeros_like(x), aux


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
    @pytest.mark.parametrize("model", [OffsetTrapModel(3), SilentModel()], ids=["trap", "none"])
    def test_summary_keeps_its_schedule_and_trap_point(self, model):
        sched = harmonic(50)
        summary = monte_carlo(model, sched, np.full(model.dim, 0.1), 50, 4, master_seed=1)
        assert summary.schedule is sched
        # the declared x*, or the origin when the model declares no trap
        want = np.zeros(model.dim) if model.trap is None else model.trap.x_star
        assert summary.trap_point.dtype == np.float64
        assert np.array_equal(summary.trap_point, want)

    @pytest.mark.parametrize("d", range(1, 13))
    def test_sup_equals_norm_of_every_tail_state(self, d):
        # the squares add left to right from +0.0 (np.linalg.norm's order
        # below d = 8; from there on it adds pairwise)
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
        sq = np.square(tail - model.trap.x_star)
        dist = sq[..., 0] + 0.0
        for i in range(1, d):
            dist += sq[..., i]
        dist = np.sqrt(dist)
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


def test_combine_increment_is_the_canonical_expression():
    g, eps, rem = np.array([2.0]), np.array([3.0]), np.array([5.0])
    assert combine_increment(0.5, g, 0.25, eps, rem) == pytest.approx(3.0)
