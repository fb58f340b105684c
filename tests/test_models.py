import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from trapcheck import (
    LinearModel,
    ManifoldK,
    MeanFieldVrrwModel,
    SingularDenominatorError,
    StuckWalkError,
    SyntheticModel,
    VrrwConfig,
    VrrwWalkModel,
    control_models,
    vrrw_field,
    vrrw_jacobian,
)
from trapcheck.models import _rademacher, _sq_norms, _vrrw_pieces


def fd_jacobian(f, x, h=1e-6):
    d = len(x)
    J = np.zeros((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        J[:, j] = (np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2 * h)
    return J


def walk_step(cfg, counts, cur, u):
    """One ``VrrwWalkModel.step_parts`` call on runs at counts ``counts``
    (one row per run, or one row for all), walker positions ``cur`` and
    draws ``u``: (next vertices, updated counts, transition laws), with the
    law of each run recovered from its noise as ``p = e_J - eps``."""
    u = np.asarray(u, dtype=np.float64).reshape(-1, 1)
    B = len(u)
    counts = np.broadcast_to(np.asarray(counts, dtype=np.float64), (B, cfg.d)).copy()
    aux = {"counts": counts, "cur": np.broadcast_to(cur, (B,)).astype(np.int64)}
    x = counts / counts.sum(axis=1, keepdims=True)
    _, eps, _, aux = VrrwWalkModel(cfg).step_parts(x, 0, u, aux)
    nxt = aux["cur"]
    p = (np.arange(cfg.d) == nxt[:, None]) - eps
    return nxt, aux["counts"], p


class TestVrrwField:
    def test_two_vertex_balanced(self):
        cfg = VrrwConfig(d=2, alpha=2.0, A=np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert_allclose(vrrw_field(np.array([0.5, 0.5]), cfg), [0.0, 0.0], atol=1e-15)

    def test_two_vertex_hand_value(self):
        cfg = VrrwConfig(d=2, alpha=2.0, A=np.array([[0.0, 1.0], [1.0, 0.0]]))
        f = vrrw_field(np.array([0.8, 0.2]), cfg)
        assert_allclose(f, [-0.3, 0.3], atol=1e-12)

    def test_uniform_is_equilibrium(self):
        for d in range(2, 7):
            for alpha in (1.0, 1.5, 2.0, 3.0):
                cfg = VrrwConfig.complete(d, alpha)
                f = vrrw_field(np.full(d, 1.0 / d), cfg)
                assert np.max(np.abs(f)) <= 1e-12

    def test_tangency_random_points(self, rng):
        cfg = VrrwConfig.complete(4, 2.0)
        V = rng.dirichlet(np.ones(4), size=500)
        f = vrrw_field(V, cfg)
        assert np.max(np.abs(f.sum(axis=1))) <= 1e-12

    def test_degenerate_denominator(self):
        cfg = VrrwConfig.complete(3, 2.0)
        with pytest.raises(SingularDenominatorError):
            vrrw_field(np.array([1.0, 0.0, 0.0]), cfg)

    def test_off_simplex_rejected(self):
        cfg = VrrwConfig.complete(3, 2.0)
        with pytest.raises(ValueError):
            vrrw_field(np.array([0.5, 0.2, 0.2]), cfg)

    def test_jacobian_matches_finite_differences(self, rng):
        cfg = VrrwConfig.complete(3, 2.0)
        v = np.array([0.5, 0.3, 0.2])
        J = vrrw_jacobian(v, cfg)
        J_fd = fd_jacobian(lambda x: vrrw_field(x, cfg, validate=False), v)
        assert_allclose(J, J_fd, rtol=1e-5, atol=1e-7)

    def test_jacobian_at_uniform_degenerate_case(self):
        # d=3, alpha=2: spectrum exactly {-1, 0, 0}
        cfg = VrrwConfig.complete(3, 2.0)
        ev = np.sort(np.linalg.eigvals(vrrw_jacobian(cfg.uniform, cfg)).real)
        assert_allclose(ev, [-1.0, 0.0, 0.0], atol=1e-12)

    def test_jacobian_radial_direction(self):
        # Df(v*) v* = -v* exactly at every equilibrium (degree-0 homogeneous part)
        for d, alpha in ((3, 2.0), (4, 2.0), (5, 1.5)):
            cfg = VrrwConfig.complete(d, alpha)
            u = cfg.uniform
            assert_allclose(vrrw_jacobian(u, cfg) @ u, -u, atol=1e-12)


class TestVrrwConfig:
    def test_complete_graph(self):
        cfg = VrrwConfig.complete(3, 2.0)
        assert_allclose(cfg.A, np.ones((3, 3)) - np.eye(3))
        assert cfg.total0 == 3
        # the field is invariant to the overall scale of A
        v = np.array([0.5, 0.3, 0.2])
        half = VrrwConfig(d=3, alpha=2.0, A=cfg.A / 2.0)
        assert_allclose(vrrw_field(v, cfg), vrrw_field(v, half), rtol=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            VrrwConfig(d=3, alpha=0.5, A=np.ones((3, 3)) - np.eye(3))  # alpha < 1
        with pytest.raises(ValueError):
            VrrwConfig(d=2, alpha=2.0, A=np.array([[0.0, 1.0], [2.0, 0.0]]))  # asym
        with pytest.raises(ValueError):  # row sums differ
            VrrwConfig(d=3, alpha=2.0, A=np.array([[0, 1, 1], [1, 0, 2], [1, 2, 0]], float))
        with pytest.raises(ValueError):  # zero off-diagonal
            VrrwConfig(d=2, alpha=2.0, A=np.zeros((2, 2)))
        with pytest.raises(ValueError):  # bad counts
            VrrwConfig.complete(3, 2.0, initial_counts=(1, 0, 1))

    def test_fractional_counts_are_rejected_not_truncated(self):
        with pytest.raises(ValueError, match="integers"):
            VrrwConfig.complete(3, 2.0, initial_counts=(1.5, 1, 1))
        assert VrrwConfig.complete(3, 2.0, initial_counts=(2.0, 1, 1)).initial_counts == (2, 1, 1)


class TestWalk:
    def test_transition_example(self):
        # at vertex 0, counts (1,2,1), alpha=2: weights (-, 4, 1) -> (0, .8, .2)
        cfg = VrrwConfig(d=3, alpha=2.0, A=np.ones((3, 3)) - np.eye(3))
        _, _, p = walk_step(cfg, [1.0, 2.0, 1.0], 0, 0.5)
        assert_allclose(p[0], [0.0, 0.8, 0.2], atol=1e-15)

    def test_walk_step_count_update(self):
        cfg = VrrwConfig.complete(3, 2.0)
        nxt, counts, _ = walk_step(cfg, [1.0, 1.0, 1.0], 0, 0.1)
        assert nxt[0] == 1
        assert_allclose(counts[0], [1.0, 2.0, 1.0])
        assert_allclose(counts[0] / counts[0].sum(), [0.25, 0.5, 0.25])

    def test_two_vertices_alternate(self):
        cfg = VrrwConfig.complete(2, 2.0)
        m = VrrwWalkModel(cfg)
        rng = np.random.default_rng(0)
        aux = m.init_aux(1)
        x = m.initial_state()[None, :]
        for i in range(100):
            prev = aux["cur"][0]
            _, _, _, aux = m.step_parts(x, i, rng.random((1, 1)), aux)
            assert aux["cur"][0] != prev
        counts = aux["counts"][0]
        assert_allclose(counts / counts.sum(), [0.5, 0.5], atol=0.01)

    def test_stuck_walk(self):
        # from vertex 0 the only other vertex has count 0: no weight left
        cfg = VrrwConfig.complete(2, 2.0)
        with pytest.raises(StuckWalkError):
            walk_step(cfg, [1.0, 0.0], 0, 0.5)

    def test_transition_goodness_of_fit(self):
        # one batch of n runs, all at the same counts and position
        cfg = VrrwConfig.complete(3, 2.0)
        n = 100_000
        u = np.random.default_rng(7).random(n)
        nxt, _, laws = walk_step(cfg, [1.0, 2.0, 3.0], 0, u)
        p = laws[0]
        assert_allclose(laws, np.broadcast_to(p, laws.shape), atol=1e-15)
        hits = np.bincount(nxt, minlength=3)
        live = p > 0
        chi2 = np.sum((hits[live] - n * p[live]) ** 2 / (n * p[live]))
        dof = live.sum() - 1
        assert chi2 <= dof + 3 * np.sqrt(2 * dof) + 1.0

    def test_mean_field_consistency_enumeration(self):
        # E[v_{n+1} - v_n | counts, cur] == (p - v) / (tot + 1), enumerated
        cfg = VrrwConfig.complete(3, 2.0)
        counts = np.array([2.0, 3.0, 4.0])
        tot = counts.sum()
        v = counts / tot
        for cur in range(3):
            p = walk_step(cfg, counts, cur, 0.5)[2][0]
            expected = np.zeros(3)
            for j in range(3):
                nc = counts.copy()
                nc[j] += 1
                expected += p[j] * (nc / nc.sum() - v)
            assert_allclose(expected, (p - v) / (tot + 1), atol=1e-15)


class TestWalkSamplingBoundary:
    """u just below 1 on rows whose pairwise sum exceeds the cumsum total
    (common for d >= 8) must still pick a positive-weight vertex."""

    U_TOP = np.nextafter(1.0, 0.0)

    @staticmethod
    def _overshooting_rows(cfg, n=400):
        rng = np.random.default_rng(3)
        counts = rng.integers(1, 50, size=(n, cfg.d)).astype(np.float64)
        cur = rng.integers(0, cfg.d, size=n)
        w = cfg.A[cur] * counts**cfg.alpha
        w[np.arange(n), cur] = 0.0
        over = np.sum(w, axis=1) > np.cumsum(w, axis=1)[:, -1]
        assert over.any()
        return counts[over], cur[over], w[over]

    @pytest.mark.parametrize("d", [8, 12])
    def test_walk_model_step(self, d):
        cfg = VrrwConfig.complete(d, 1.5)
        counts, cur, w = self._overshooting_rows(cfg)
        m = VrrwWalkModel(cfg)
        B = len(cur)
        aux = {"counts": counts.copy(), "cur": cur.copy()}
        x = counts / counts.sum(axis=1, keepdims=True)
        m.step_parts(x, 0, np.full((B, 1), self.U_TOP), aux)
        nxt = aux["cur"]
        assert np.all(nxt < d)
        assert np.all(w[np.arange(B), nxt] > 0)


class TestVrrwModels:
    def test_walk_model_initial_state_and_schedule(self):
        m = VrrwWalkModel(VrrwConfig.complete(3, 2.0))
        assert_allclose(m.initial_state(), np.full(3, 1.0 / 3.0))
        s = m.natural_schedule(100)
        # gamma_n = c_n = 1/(n + total initial count)
        assert_allclose(s.gamma_values[1], 1.0 / 4.0, rtol=1e-15)
        assert_allclose(s.c_values[7], 1.0 / 10.0, rtol=1e-15)

    def test_declared_trap_constants(self):
        m = VrrwWalkModel(VrrwConfig.complete(3, 2.0))
        assert m.trap.mu == -1.0
        assert m.trap.nu == 1.0  # alpha - 1
        m15 = MeanFieldVrrwModel(VrrwConfig.complete(3, 1.5))
        assert m15.trap.nu == 0.5
        m1 = MeanFieldVrrwModel(VrrwConfig.complete(3, 1.0))
        assert m1.trap.nu is None  # linear reinforcement: no tangency exponent

    def test_mean_field_g_is_field_bitwise(self):
        cfg = VrrwConfig.complete(3, 2.0)
        m = MeanFieldVrrwModel(cfg)
        x = np.array([[0.5, 0.3, 0.2], [0.2, 0.2, 0.6]])
        g, eps, rem, _ = m.step_parts(x, 0, np.array([[0.3], [0.9]]), m.init_aux(2))
        assert np.array_equal(g, vrrw_field(x, cfg, validate=False))
        assert np.array_equal(rem, np.zeros_like(x))

    def test_mean_field_eps_mean_zero_exact(self):
        # E[e_J | v] = pi = v + f(v) by enumeration: sum_j pi_j (e_j - pi) = 0
        cfg = VrrwConfig.complete(3, 2.0)
        m = MeanFieldVrrwModel(cfg)
        x = np.array([[0.5, 0.3, 0.2]])
        aux = m.init_aux(1)
        raws = np.linspace(0.0005, 0.9995, 1000).reshape(-1, 1)
        mean_eps = np.zeros(3)
        weight = 1.0 / len(raws)
        for u in raws:
            _, eps, _, _ = m.step_parts(x, 0, u.reshape(1, 1), aux)
            mean_eps += weight * eps[0]
        # uniform grid over u enumerates J with the right frequencies up to
        # discretization at the two cell boundaries
        assert np.max(np.abs(mean_eps)) <= 2.0 / len(raws) + 1e-12


class TestSyntheticField:
    def test_default_instance(self):
        f = SyntheticModel().field(np.array([0.3, 0.4]))
        assert_allclose(f, [0.3, -0.4], atol=1e-15)

    def test_zero_is_equilibrium(self):
        assert_allclose(SyntheticModel().field(np.zeros(2)), [0.0, 0.0])

    def test_jacobian_rectification(self):
        m = SyntheticModel(mu=-1.0, nu=1.0)
        J = fd_jacobian(m.field, np.zeros(2))
        assert_allclose(J, np.diag([1.0, -1.0]), atol=1e-6)


class TestModelContracts:
    @pytest.mark.parametrize(
        "model",
        [
            LinearModel(np.diag([1.0, -1.0]), id="lin"),
            SyntheticModel(mu=-1.0, nu=1.0),
            VrrwWalkModel(VrrwConfig.complete(4, 2.0)),
            MeanFieldVrrwModel(VrrwConfig.complete(4, 2.0)),
        ],
    )
    def test_declared_equilibrium(self, model):
        x_star = model.trap.x_star
        assert np.linalg.norm(model.field(x_star)) <= 1e-12
        J_fd = fd_jacobian(model.field, x_star)
        J = np.asarray(model.trap.jacobian)
        assert np.linalg.norm(J_fd - J) <= 1e-5 * (1 + np.linalg.norm(J))

    def test_only_the_sign_models_draw_bools(self):
        # the linear and synthetic noise reads u >= 0.5 alone, the walks u
        cfg = VrrwConfig.complete(3, 2.0)
        assert LinearModel([[1.0]]).raw_dtype == SyntheticModel().raw_dtype == np.bool_
        assert VrrwWalkModel(cfg).raw_dtype == MeanFieldVrrwModel(cfg).raw_dtype == np.float64

    def test_noise_conditional_mean(self):
        m = LinearModel([[1.0]])
        rng = np.random.default_rng(3)
        raw = rng.random((100_000, 1)) >= 0.5
        draws = m.step_parts(np.zeros((100_000, 1)), 0, raw, None)[1]
        assert abs(draws.mean()) <= 4.0 / np.sqrt(100_000)

    def test_manifold_distance(self):
        K = ManifoldK(basepoint=np.zeros(2), directions=np.eye(2)[:, :1])
        x = np.array([[3.0, 4.0], [1.0, 0.0]])
        assert_allclose(K.distance(x), [4.0, 0.0], atol=1e-12)


class TestControls:
    def test_catalog(self):
        table = control_models()
        assert set(table) == {"degenerate_noise", "stable_only_noise", "bad_remainder"}

    def test_degenerate_noise_is_silent(self):
        m = control_models()["degenerate_noise"]
        eps = m.step_parts(np.zeros((4, 1)), 5, np.zeros((4, 0)), None)[1]
        assert np.all(eps == 0.0)

    def test_stable_only_leaves_unstable_coordinate_alone(self):
        m = control_models()["stable_only_noise"]
        raw = np.array([[0.3, 0.8], [0.6, 0.1]]) >= 0.5
        eps = m.step_parts(np.zeros((2, 2)), 1, raw, None)[1]
        assert np.all(eps[:, 0] == 0.0)
        assert np.all(np.abs(eps[:, 1]) == 1.0)

    def test_bad_remainder_values(self):
        m = control_models()["bad_remainder"]
        r = m.step_parts(np.zeros((1, 1)), 3, np.zeros((1, 1), bool), None)[2]  # r_{n+1}, n=3
        assert r[0, 0] == pytest.approx(1.0 / 2.0, abs=1e-15)  # 1/sqrt(4)


# ---------------------------------------------------------------------------
# column-form VRRW arithmetic against the row-major formulas
# ---------------------------------------------------------------------------


def _bits(a):
    """An array's float64 bit patterns (so -0.0 != 0.0 and NaN == NaN)."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _fold_rows(a):
    """Each row's sum, added left to right from +0.0."""
    out = a[:, 0] + 0.0
    for j in range(1, a.shape[1]):
        out += a[:, j]
    return out


def _row_major_pieces(vb, cfg):
    # the row-wise formulas the column form replaced, kept as the reference
    v_alpha = vb**cfg.alpha
    S = np.zeros_like(vb)
    for j in range(cfg.d):
        S += v_alpha[:, j : j + 1] * cfg.A[:, j][None, :]
    return v_alpha, S, _fold_rows(v_alpha * S)


def _row_major_field(vb, cfg):
    v_alpha, S, H = _row_major_pieces(vb, cfg)
    return v_alpha * S / H[:, None] - vb


def _row_major_meanfield_step(model, x, raw):
    v_alpha, S, H = _row_major_pieces(x, model.cfg)
    pi = v_alpha * S / H[:, None]
    nxt = np.minimum(
        (raw[:, 0][:, None] >= np.cumsum(pi, axis=1)).sum(axis=1), model.dim - 1
    )
    e = np.zeros_like(x)
    e[np.arange(x.shape[0]), nxt] = 1.0
    return pi - x, e - pi, np.zeros_like(x)


def _row_major_walk_weights(model, aux):
    counts, cur = aux["counts"], aux["cur"]
    w = model.cfg.A[cur] * counts**model.cfg.alpha
    w[np.arange(len(cur)), cur] = 0.0
    return w


def _row_major_walk_step(model, x, raw, aux):
    counts, cur = aux["counts"], aux["cur"]
    rows = np.arange(x.shape[0])
    w = _row_major_walk_weights(model, aux)
    tot = _fold_rows(w)
    c = np.cumsum(w, axis=1)
    nxt = (raw[:, 0][:, None] * c[:, -1:] >= c).sum(axis=1)
    p = w / tot[:, None]
    v_alpha, S, H = _row_major_pieces(x, model.cfg)
    g = v_alpha * S / H[:, None] - x
    e = np.zeros_like(x)
    e[rows, nxt] = 1.0
    counts[rows, nxt] += 1.0
    aux["cur"] = nxt
    return g, e - p, p - x - g


def _configs(d):
    """The complete graph and a nearly symmetric A (A[0, 1] != A[1, 0] in the
    last bits, within VrrwConfig's tolerance), for each alpha."""
    A = np.ones((d, d)) - np.eye(d)
    A[0, 1] += 1e-14
    for alpha in (1, 1.5, 2.0, 2.5):
        yield VrrwConfig.complete(d, alpha)
        yield VrrwConfig(d=d, alpha=alpha, A=A)


U_TOP = np.nextafter(1.0, 0.0)  # 1 - 2**-53


def _states(rng, d, B, order):
    """Simplex points in C or F order, with a +0.0 coordinate in some rows and
    a -0.0 one in others (from d = 3 on: at d = 2 a zero coordinate makes
    H(v) = 0), and raw draws with u = 0 in every fourth row and
    u = 1 - 2**-53 in the next."""
    x = rng.dirichlet(np.ones(d), size=B)
    if d >= 3:
        x[1::5, 0] = 0.0
        x[2::5, -1] = -0.0
    raw = rng.random((B, 1))
    raw[::4] = 0.0
    raw[1::4] = U_TOP
    return np.asarray(x, order=order), raw


def _on_running_sums(raw, sums):
    """Put u, in every fourth row from the third, exactly on one of the
    running sums ``sums`` (shape (B, n)) but the last (a sum that reaches 1
    gives 1 - 2**-53 instead)."""
    on = np.arange(2, len(raw), 4)
    raw[on, 0] = np.minimum(sums[on, on % (sums.shape[1] - 1)], U_TOP)


class TestColumnForm:
    DIMS = list(range(2, 13)) + [130]

    @pytest.mark.parametrize("d", DIMS)
    def test_field_and_meanfield_step_equal_row_major_bits(self, d):
        rng = np.random.default_rng(d)
        for cfg in _configs(d):
            model = MeanFieldVrrwModel(cfg)
            for B, order in itertools.product((1, 7, 200), "CF"):
                x, raw = _states(rng, d, B, order)
                v_alpha, S, H = _row_major_pieces(x, cfg)
                _on_running_sums(raw, np.cumsum(v_alpha * S / H[:, None], axis=1))
                assert np.array_equal(
                    _bits(vrrw_field(x, cfg, validate=False)), _bits(_row_major_field(x, cfg))
                )
                got = model.step_parts(x, 0, raw, None)[:3]
                for a, b in zip(got, _row_major_meanfield_step(model, x, raw)):
                    assert a.shape == b.shape
                    assert np.array_equal(_bits(a), _bits(b))  # values and sign bits

    @pytest.mark.parametrize("d", DIMS)
    def test_walk_steps_equal_row_major_bits(self, d):
        rng = np.random.default_rng(100 + d)
        for cfg in _configs(d):
            model = VrrwWalkModel(cfg, start_vertex=d - 1)
            for B, order in itertools.product((1, 7, 200), "CF"):
                aux, ref_aux = model.init_aux(B), model.init_aux(B)
                aux["counts"] += rng.integers(0, 40, size=(B, d))
                ref_aux["counts"][:] = aux["counts"]
                for n in range(6):
                    x, raw = _states(rng, d, B, order)
                    c = np.cumsum(_row_major_walk_weights(model, ref_aux), axis=1)
                    _on_running_sums(raw, c / c[:, -1:])  # u * tot at or next to a sum
                    got = model.step_parts(x, n, raw, aux)[:3]
                    ref = _row_major_walk_step(model, x, raw, ref_aux)
                    for a, b in zip(got, ref):
                        assert a.shape == b.shape
                        assert np.array_equal(_bits(a), _bits(b))
                    assert np.array_equal(aux["cur"], ref_aux["cur"])
                    assert np.array_equal(aux["counts"], ref_aux["counts"])


# ---------------------------------------------------------------------------
# the linear and synthetic steps against the formulas they replaced
# ---------------------------------------------------------------------------


def _ref_apply_matrix(M, x):
    # the batch round trip the lean helper replaced, kept as the reference
    xb = x.reshape(-1, x.shape[-1])
    out = np.zeros_like(xb)
    for j in range(M.shape[1]):
        out += xb[:, j : j + 1] * M[:, j][None, :]
    return out.reshape(*x.shape[:-1], M.shape[0])


def _ref_rademacher(raw):
    # on the uniform doubles the engine drew before it kept u >= 0.5 alone
    return np.where(raw < 0.5, -1.0, 1.0)


def _ref_linear_step(model, x, n, raw):
    if model.noise_kind == "none":
        eps = np.zeros_like(x)
    else:
        eps = _ref_rademacher(raw)
        if model.noise_kind == "stable_only":
            eps[..., : model.unstable_dims] = 0.0
    if model.remainder_kind == "inv_sqrt":
        rem = np.full_like(x, 1.0 / np.sqrt(n + 1.0))
    else:
        rem = np.zeros_like(x)
    return _ref_apply_matrix(model.H, x), eps, rem


def _ref_synthetic_field(x, k, mu):
    xb = x.reshape(-1, x.shape[-1])
    out = np.empty_like(xb)
    out[:, :k] = xb[:, :k]
    np.multiply(mu, xb[:, k:], out=out[:, k:])
    return out.reshape(x.shape)


def _edge_inputs(d, B=40, order="C"):
    """States with +0.0 and -0.0 entries, and draws that hit 0.0, 0.5 and
    the double just below 0.5, in C or F order."""
    rng = np.random.default_rng(d)
    x = rng.standard_normal((B, d))
    x[::4] = 0.0
    x[1::4] = -0.0
    x[2::4] = -0.0
    x[2::4, 1] = 0.0  # every product of H's first row is -0.0 there
    raw = rng.random((B, d))
    raw[::3, 0] = 0.0
    raw[1::3] = 0.5
    raw[2::3, -1] = np.nextafter(0.5, 0.0)
    return np.asarray(x, order=order), np.asarray(raw, order=order)


def _assert_same_bits(got, want, c_ordered):
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.array_equal(_bits(a), _bits(b))  # values and signbit
        if c_ordered:
            assert a.flags.c_contiguous


class TestLeanSteps:
    def test_rademacher_at_the_half(self):
        raw = np.array([0.0, np.nextafter(0.5, 0.0), 0.5, np.nextafter(1.0, 0.0)])
        want = _bits(np.array([-1.0, -1.0, 1.0, 1.0]))
        assert np.array_equal(_bits(_rademacher(raw >= 0.5)), want)
        # the formula the double draws went through: u - 0.5 is never -0.0
        assert np.array_equal(_bits(np.copysign(1.0, raw - 0.5)), want)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("remainder", ["none", "inv_sqrt"])
    @pytest.mark.parametrize("noise", ["rademacher", "none", "stable_only"])
    def test_linear_step_equals_replaced_formulas(self, noise, remainder, order):
        H = np.array([[1.0, -0.5, 0.0], [0.0, -2.0, 0.25], [-0.0, 3.0, -1.0]])
        model = LinearModel(H, noise_kind=noise, remainder_kind=remainder, unstable_dims=2)
        x, raw = _edge_inputs(3, order=order)
        raw = raw[:, : model.n_raw]
        for n in (0, 7):
            got = model.step_parts(x, n, raw >= 0.5, None)[:3]
            _assert_same_bits(got, _ref_linear_step(model, x, n, raw), order == "C")

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_synthetic_step_equals_replaced_formulas(self, order):
        model = SyntheticModel(mu=-1.5, nu=0.5, dim=3, delta_plus=2)
        x, raw = _edge_inputs(3, order=order)
        got = model.step_parts(x, 0, raw >= 0.5, None)[:3]
        want = (
            _ref_synthetic_field(x, 2, -1.5),
            _ref_rademacher(raw),
            np.zeros_like(x),
        )
        _assert_same_bits(got, want, order == "C")

    @pytest.mark.parametrize("shape", [(3,), (40, 3), (5, 8, 3)])
    def test_fields_keep_shape_and_bits(self, shape):
        x = _edge_inputs(3)[0][: int(np.prod(shape[:-1]))].reshape(shape)
        H = np.array([[1.0, -0.5, 0.0], [0.0, -2.0, 0.25], [-0.0, 3.0, -1.0]])
        got = LinearModel(H).field(x), SyntheticModel(dim=3).field(x)
        want = _ref_apply_matrix(H, x), _ref_synthetic_field(x, 1, -1.0)
        _assert_same_bits(got, want, True)


# ---------------------------------------------------------------------------
# the VRRW steps on C-contiguous columns: draws on a running sum, H <= 0, NaN
# ---------------------------------------------------------------------------


class TestLeanVrrwSteps:
    def test_draw_on_a_running_sum_takes_the_next_index(self):
        # u equal to pi_0 + pi_1 is not below that sum: index 2
        cfg = VrrwConfig.complete(3, 2.0)
        x = np.array([[0.5, 0.3, 0.2]])
        v_alpha, S, H = _row_major_pieces(x, cfg)
        u = np.cumsum(v_alpha * S / H[:, None], axis=1)[:, 1]
        eps = MeanFieldVrrwModel(cfg).step_parts(x, 0, u[:, None], None)[1]
        assert np.argmax(eps[0]) == 2

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("nan_row", [False, True])
    def test_vanishing_H_raises(self, order, nan_row):
        # at d = 2, v = (1, 0) gives H(v) = 0 in the second row; a NaN H in
        # another row must not hide it
        cfg = VrrwConfig.complete(2, 2.0)
        x = np.asarray([[np.nan if nan_row else 0.5, 0.5], [1.0, 0.0]], order=order)
        raw = np.full((2, 1), 0.5)
        walk = VrrwWalkModel(cfg)
        for call in (
            lambda: _vrrw_pieces(x.T.copy(), cfg),
            lambda: MeanFieldVrrwModel(cfg).step_parts(x, 0, raw, None),
            lambda: walk.step_parts(x, 0, raw, walk.init_aux(2)),
        ):
            with pytest.raises(SingularDenominatorError, match="vanished"):
                call()

    def test_nan_H_and_empty_batch_do_not_raise(self):
        cfg = VrrwConfig.complete(3, 2.0)
        model = MeanFieldVrrwModel(cfg)
        x = np.array([[0.5, 0.3, 0.2], [np.nan, 0.5, 0.5]])
        raw = np.full((2, 1), 0.5)
        got = model.step_parts(x, 0, raw, None)[:3]
        for a, b in zip(got, _row_major_meanfield_step(model, x, raw)):
            assert np.array_equal(_bits(a), _bits(b))
        assert np.isnan(got[0][1]).all() and np.isfinite(got[0][0]).all()
        empty = np.empty((0, 3))
        g, eps, rem, _ = model.step_parts(empty, 0, np.empty((0, 1)), None)
        assert g.shape == eps.shape == rem.shape == (0, 3)
        assert vrrw_field(empty, cfg, validate=False).shape == (0, 3)
        walk = VrrwWalkModel(cfg)
        assert walk.step_parts(empty, 0, np.empty((0, 1)), walk.init_aux(0))[0].shape == (0, 3)


# ---------------------------------------------------------------------------
# squared norms over coordinates
# ---------------------------------------------------------------------------


def _norm_inputs(d):
    """(40, 30, d) doubles at magnitudes from 1e-150 to 1e150, with +0.0,
    -0.0, inf and NaN entries."""
    rng = np.random.default_rng(d)
    y = rng.standard_normal((40, 30, d)) * 10.0 ** rng.integers(-150, 151, size=(40, 30, 1))
    y[0, :, :] = -0.0
    y[1, :, 0] = 0.0
    y[2, 0, -1] = np.inf
    y[3, 0, 0] = np.nan
    return y


def _layouts(y):
    """y in C order, in F order, and as the runs-first view of step-major
    memory the eps checkers read."""
    return {
        "C": np.ascontiguousarray(y),
        "F": np.asfortranarray(y),
        "runs-first": np.ascontiguousarray(y.transpose(1, 0, 2)).transpose(1, 0, 2),
    }


class TestSqNorms:
    @pytest.mark.parametrize("d", range(1, 8))
    def test_bitwise_numpy_below_eight_coordinates(self, d):
        for name, y in _layouts(_norm_inputs(d)).items():
            for a in (y, y[:, 0], y[5, 3]):
                got = _sq_norms(a)
                want = np.sum(np.square(a), axis=-1)
                assert got.shape == want.shape, name
                assert got.strides == want.strides, name  # means over runs depend on it
                assert np.array_equal(_bits(got), _bits(want)), name
                assert np.array_equal(_bits(np.sqrt(got)), _bits(np.linalg.norm(a, axis=-1)))

    @pytest.mark.parametrize("d", range(8, 13))
    def test_left_fold_from_eight_coordinates(self, d):
        for name, y in _layouts(_norm_inputs(d)).items():
            want = np.zeros(y.shape[:-1])
            for j in range(d):
                want = want + y[..., j] * y[..., j]
            assert np.array_equal(_bits(_sq_norms(y)), _bits(want)), name

    def test_no_coordinates(self):
        assert np.array_equal(_sq_norms(np.empty((4, 0))), np.zeros(4))
