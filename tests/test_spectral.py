import contextlib
import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from trapcheck import (
    AmbiguousSpectrumError,
    ConditioningError,
    SpectrumSignError,
    adapted_inner_product,
    default_tolerance,
    project_pm,
    spectral,
    split_jacobian,
)
from trapcheck.cli import ExperimentConfig, run_experiment
from trapcheck.models import _sq_norms
from conftest import random_repulsive, random_split_matrix


class TestSplitJacobian:
    def test_diag_example(self):
        sp = split_jacobian(np.diag([1.0, -2.0]))
        assert (sp.delta_plus, sp.delta_minus) == (1, 1)
        assert sp.mu == pytest.approx(-2.0, abs=1e-12)
        assert sp.classification == "unstable_hyperbolic"
        assert_allclose(sp.H_plus, [[1.0]], atol=1e-12)
        assert_allclose(sp.H_minus, [[-2.0]], atol=1e-12)

    def test_rotation_is_center(self):
        sp = split_jacobian(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert (sp.delta_plus, sp.delta_minus) == (0, 2)
        assert sp.mu == 0.0
        assert sp.classification == "center"

    def test_mixed_two_by_two(self):
        H = np.array([[3.0, 4.0], [-2.0, -3.0]])  # eigenvalues +1, -1
        sp = split_jacobian(H)
        assert (sp.delta_plus, sp.delta_minus) == (1, 1)
        assert sp.mu == pytest.approx(-1.0, abs=1e-10)
        # eigenvector for +1 is (2, -1): it must land in the repulsive block
        y_plus, y_minus = project_pm(sp, np.array([2.0, -1.0]), np.zeros(2))
        assert np.linalg.norm(y_minus) <= 1e-10 * np.linalg.norm(y_plus)

    def test_identity_is_repulsive(self):
        sp = split_jacobian(np.eye(3))
        assert sp.classification == "repulsive"
        assert sp.delta_plus == 3 and sp.delta_minus == 0
        assert sp.mu == 0.0  # no contracting block: convention

    def test_stable_matrix(self):
        sp = split_jacobian(np.diag([-1.0, -3.0]))
        assert sp.classification == "stable"
        assert sp.mu == pytest.approx(-1.0, abs=1e-12)

    def test_ambiguity_band_rejected(self):
        H = np.diag([1.0, 5e-9])
        with pytest.raises(AmbiguousSpectrumError) as ei:
            split_jacobian(H, tol=1e-8)
        assert ei.value.offenders  # the offending eigenvalue is reported

    def test_zero_matrix_is_center(self):
        sp = split_jacobian(np.zeros((2, 2)))
        assert sp.classification == "center"

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            split_jacobian(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_block_diagonal_reconstruction(self):
        H = np.array([[3.0, 4.0], [-2.0, -3.0]])
        sp = split_jacobian(H)
        R = sp.P @ sp.block_diagonal() @ sp.P_inv
        assert np.linalg.norm(R - H) <= 1e-8 * (1 + np.linalg.norm(H))

    def test_random_batch_properties(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 9))
            H = random_split_matrix(rng, d)
            sp = split_jacobian(H)
            normH = np.linalg.norm(H)
            # reconstruction
            R = sp.P @ sp.block_diagonal() @ sp.P_inv
            assert np.linalg.norm(R - H) <= 1e-8 * (1 + normH)
            # spectrum multiset preserved
            ev_in = np.sort_complex(np.linalg.eigvals(H))
            ev_out = np.sort_complex(np.asarray(sp.eigenvalues))
            assert np.max(np.abs(ev_in - ev_out)) <= 1e-8 * (1 + normH)
            # block sizes count the sign split
            assert sp.delta_plus == int(np.sum(ev_in.real > 0))
            # mu matches a brute-force evaluation
            neg = ev_in.real[ev_in.real < 0]
            if len(neg) == sp.dim:
                pass  # stable case: mu = max over all
            if sp.delta_minus > 0:
                assert sp.mu == pytest.approx(float(neg.max()), abs=1e-7)


class TestAdaptedInnerProduct:
    def test_identity(self):
        an = adapted_inner_product(np.eye(2))
        assert_allclose(an.S, np.eye(2), atol=1e-12)
        assert an.lam == pytest.approx(1.0, abs=1e-12)

    def test_diag_1_2(self):
        an = adapted_inner_product(np.diag([1.0, 2.0]))
        assert_allclose(an.S, np.diag([1.0, 0.5]), atol=1e-12)
        assert an.lam == pytest.approx(1.0, abs=1e-12)

    def test_jordan_block(self):
        an = adapted_inner_product(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert_allclose(an.S, [[1.0, -0.5], [-0.5, 1.5]], atol=1e-12)
        assert an.lam == pytest.approx(0.552786404500042, abs=1e-12)

    @pytest.mark.parametrize("h", [[1.0, 1e-17], [2.0, 2.0, 1e-300]])
    def test_diagonal_entries_may_span_past_one_over_eps(self, h):
        # S = diag(1/h), with no solve: the Sylvester solve's residual check
        # failed on these
        an = adapted_inner_product(np.diag(h))
        assert np.array_equal(an.S, np.diag(1.0 / np.array(h)))
        assert an.lam == pytest.approx(min(h), rel=1e-15)

    def test_diagonal_past_the_float_range_is_ill_conditioned(self):
        # 1/h overflows: the residual is NaN, which fails the check
        with pytest.raises(ConditioningError):
            adapted_inner_product(np.diag([1.0, 5e-324]))

    def test_not_repulsive_rejected(self):
        with pytest.raises(SpectrumSignError):
            adapted_inner_product(np.diag([1.0, -1.0]))

    def test_coercivity_on_randoms(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 7))
            H = random_repulsive(rng, d)
            an = adapted_inner_product(H)
            X = rng.standard_normal((50, d))
            lhs = np.einsum("bi,ij,jk,bk->b", X, an.S, H, X)
            rhs = an.lam * np.einsum("bi,ij,bj->b", X, an.S, X)
            assert np.min(lhs - rhs) >= -1e-9
            # residual of the defining equation
            res = H.T @ an.S + an.S @ H - 2 * np.eye(d)
            assert np.linalg.norm(res) <= 1e-8

    def test_no_dimension_cap(self):
        d = 80
        rng = np.random.default_rng(d)
        H = random_repulsive(rng, d)
        an = adapted_inner_product(H)
        assert np.linalg.norm(H.T @ an.S + an.S @ H - 2 * np.eye(d)) <= 1e-8
        assert np.array_equal(an.S, an.S.T)
        X = rng.standard_normal((50, d))
        lhs = np.einsum("bi,ij,jk,bk->b", X, an.S, H, X)
        rhs = an.lam * np.einsum("bi,ij,bj->b", X, an.S, X)
        assert np.min(lhs - rhs) >= -1e-9 * np.max(np.abs(lhs))


class TestProjectPm:
    def test_diag_split_coordinates(self):
        sp = split_jacobian(np.diag([1.0, -2.0]))
        y_plus, y_minus = project_pm(sp, np.array([3.0, 5.0]), np.zeros(2))
        assert_allclose(y_plus, [3.0], atol=1e-12)
        assert_allclose(y_minus, [5.0], atol=1e-12)

    def test_at_trap_point(self):
        sp = split_jacobian(np.array([[3.0, 4.0], [-2.0, -3.0]]))
        x_star = np.array([0.7, -0.2])
        y_plus, y_minus = project_pm(sp, x_star, x_star)
        assert np.linalg.norm(y_plus) == 0.0 and np.linalg.norm(y_minus) == 0.0

    def test_reassembly(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 7))
            sp = split_jacobian(random_split_matrix(rng, d))
            x_star = rng.standard_normal(d)
            x = rng.standard_normal(d)
            y_plus, y_minus = project_pm(sp, x, x_star)
            back = sp.P @ np.concatenate([y_plus, y_minus]) + x_star
            assert np.linalg.norm(back - x) <= 1e-10 * (1 + np.linalg.norm(x))

    def test_batched(self):
        sp = split_jacobian(np.diag([1.0, -2.0, -3.0]))
        X = np.arange(12.0).reshape(4, 3)
        y_plus, y_minus = project_pm(sp, X, np.zeros(3))
        assert y_plus.shape == (4, 1) and y_minus.shape == (4, 2)


def test_default_tolerance_scales_with_norm():
    assert default_tolerance(np.eye(2)) == pytest.approx(1e-8 * np.sqrt(2.0))
    assert default_tolerance(np.zeros((2, 2))) == 1e-300


@settings(max_examples=200, deadline=None)
@given(
    H=st.integers(1, 5).flatmap(
        lambda d: st.lists(
            st.floats(-1e300, 1e300, allow_subnormal=True), min_size=d * d, max_size=d * d
        ).map(lambda v: np.array(v).reshape(d, d))
    )
)
def test_default_tolerance_is_the_plain_norm_where_it_is_finite(H):
    # the scaled norm is taken only where the sum of squares overflows;
    # entries below 1e300 keep it finite, and it never warns
    with np.errstate(over="ignore"):
        plain = float(np.linalg.norm(H, "fro"))
    tol = default_tolerance(H)
    if np.isfinite(plain):
        assert tol == max(1e-8 * plain, 1e-300)
    else:
        scale = np.max(np.abs(H))
        assert tol == 1e-8 * (scale * float(np.linalg.norm(H / scale, "fro")))
        assert np.isfinite(tol)


def test_to_dict_serializable():
    sp = split_jacobian(np.diag([1.0, -2.0]))
    d = sp.to_dict()
    assert d["delta_plus"] == 1 and d["classification"] == "unstable_hyperbolic"


# ---------------------------------------------------------------------------
# a diagonal Jacobian is split without Schur, bit for bit as Schur splits it
# ---------------------------------------------------------------------------


def _schur_path():
    """Every split in the block takes the Schur path, diagonal or not."""
    return mock.patch.object(spectral, "_diagonal_blocks", spectral._schur_blocks)


def _outcome(H, tol):
    try:
        return split_jacobian(H, tol)
    except Exception as exc:  # the two paths must raise alike
        return (type(exc), str(exc))


def _bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


def _assert_same_split(H, tol, seed):
    fast = _outcome(H, tol)
    with _schur_path():
        slow = _outcome(H, tol)
    if isinstance(slow, tuple):
        assert fast == slow
        return
    assert (fast.delta_plus, fast.delta_minus) == (slow.delta_plus, slow.delta_minus)
    assert (fast.classification, _bits(fast.mu), _bits(fast.tol)) == (
        slow.classification, _bits(slow.mu), _bits(slow.tol))
    assert np.array_equal(fast.eigenvalues, slow.eigenvalues)
    assert np.array_equal(fast.H_plus, slow.H_plus)
    assert np.array_equal(fast.H_minus, slow.H_minus)
    # Schur's rows may differ in sign only
    assert np.array_equal(np.abs(fast.P_inv), np.abs(slow.P_inv))
    rng = np.random.default_rng(seed)
    d, k = H.shape[0], fast.delta_plus
    eps = rng.standard_normal((33, d))
    eps[rng.random(eps.shape) < 0.3] = 0.0
    for rows in (slice(None, k), slice(k, None)):
        assert _bits(_sq_norms(eps @ fast.P_inv[rows].T)) == _bits(
            _sq_norms(eps @ slow.P_inv[rows].T))
    x_star = np.where(rng.random(d) < 0.5, 0.0, rng.standard_normal(d))
    for a, b in zip(project_pm(fast, eps, x_star), project_pm(slow, eps, x_star)):
        assert _bits(_sq_norms(a)) == _bits(_sq_norms(b))


@st.composite
def _diagonal_jacobians(draw):
    """A diagonal H of size 1-6 and a tol (None: the default); the entries
    include zeros of both signs, +-tol, the dead zone's edge tol/10, repeats
    and values in the ambiguity band.  No non-zero entry is below 1e-100 in
    magnitude, so the largest is inside the range LAPACK's ``dgees`` does
    not rescale (see ``test_extreme_scale_is_exact``)."""
    tol = draw(st.sampled_from([None, 1e-3, 0.25, 1.0, 3.0]))
    t = 1.0 if tol is None else tol
    pool = [0.0, -0.0, t, -t, t / 10, -t / 10, t / 2, 2.5 * t, -3.0 * t, 7.0, -0.5]
    floats = st.floats(-10.0, 10.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-100)
    entries = st.sampled_from(pool) | floats
    h = draw(st.lists(entries, min_size=1, max_size=6))
    return np.diag(np.asarray(h, dtype=np.float64)), tol, draw(st.integers(0, 2**32 - 1))


class TestDiagonalSplit:
    """A Jacobian with no non-zero entry off its diagonal is split by a
    permutation, never by ``scipy.linalg``; every value the split hands on
    equals the Schur path's."""

    @settings(max_examples=300, deadline=None)
    @given(case=_diagonal_jacobians())
    def test_equals_the_schur_path(self, case):
        _assert_same_split(*case)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_every_order_of_the_signs(self, d):
        magnitudes = np.arange(1.0, d + 1.0)
        for signs in itertools.product([1.0, -1.0, 0.0], repeat=d):
            _assert_same_split(np.diag(magnitudes * np.asarray(signs)), None, d)

    def test_schur_is_not_called(self):
        with mock.patch.object(spectral, "_schur_blocks") as schur:
            sp = split_jacobian(np.diag([-2.0, 1.0, -0.5, 3.0]))
        schur.assert_not_called()
        assert np.array_equal(sp.H_plus, np.diag([1.0, 3.0]))
        assert np.array_equal(sp.H_minus, np.diag([-2.0, -0.5]))
        assert np.array_equal(sp.P_inv, np.eye(4)[[1, 3, 0, 2]])

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-139, 1e139, 1e150])
    def test_extreme_scale_is_exact(self, scale):
        # dgees rescales a matrix whose largest entry is outside about
        # (6.7e-139, 1.5e138), and its blocks then round; the permutation
        # hands on the entries themselves
        h = scale * np.array([-1.7, 2.3, 0.0, -3.1])
        sp = split_jacobian(np.diag(h))
        assert np.array_equal(sp.H_plus, np.diag(h[[1]]))
        assert np.array_equal(sp.H_minus, np.diag(h[[0, 2, 3]]))
        with _schur_path():
            schur = split_jacobian(np.diag(h))
        assert (sp.delta_plus, sp.classification) == (schur.delta_plus, schur.classification)

    def test_empty_matrix(self):
        sp = split_jacobian(np.zeros((0, 0)))
        assert (sp.delta_plus, sp.delta_minus, sp.mu, sp.classification) == (0, 0, 0.0, "repulsive")

    def test_off_diagonal_entry_takes_the_schur_path(self):
        with mock.patch.object(spectral, "_diagonal_blocks") as diagonal:
            split_jacobian(np.array([[1.0, 1e-300], [0.0, -2.0]]))
        diagonal.assert_not_called()


#: every check, each with enough runs and steps in the ball to read values
_EVERY_CHECK = [
    {"name": "noise_excitation"},
    {"name": "remainder"},
    {"name": "drift_sign", "adapted": True, "rho": 100.0},
    {"name": "drift_sign", "mode": "coercive", "beta": 0.1, "adapted": True, "rho": 100.0},
    {"name": "drift_sign", "rho": 100.0},
    {"name": "rate_condition", "nu": 1.0},
    {"name": "jump_moments"},
    {"name": "tail_noise"},
]


@pytest.mark.parametrize(
    "model, x0",
    [
        *[pytest.param({"kind": "synthetic", "dim": d, "delta_plus": k},
                       [0.0] * k + [0.3] * (d - k), id=f"synthetic-d{d}-k{k}")
          for d in (2, 3, 4) for k in range(1, d)],
        pytest.param({"kind": "linear", "H": [[1.0, 0.0], [0.0, -1.0]]}, [0.0, 0.3],
                     id="linear-diag(1,-1)"),
        pytest.param({"kind": "linear", "H": [[-1.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, -2.0]]},
                     [0.3, 0.0, -0.2], id="linear-diag(-1,0.5,-2)"),
    ],
)
def test_run_experiment_equals_the_schur_path(tmp_path, model, x0):
    cfg = ExperimentConfig.from_dict({
        "model": model, "schedule": {"kind": "harmonic"}, "N": 300, "n_runs": 32,
        "master_seed": 25, "x0": x0, "max_blowup_fraction": 1.0, "checks": _EVERY_CHECK,
        "diagnostics": [{"name": "apt", "T": 0.5}, {"name": "manifold_rate"}],
        "output": {"trajectories": 1, "write_diagnostics": True},
    })
    bodies = []
    for name, path in (("fast", contextlib.nullcontext()), ("schur", _schur_path())):
        with path:
            code, doc = run_experiment(cfg, out_dir=tmp_path / name)
        doc.pop("meta")
        files = {p.relative_to(tmp_path / name).as_posix(): p.read_text()
                 for p in sorted((tmp_path / name).rglob("*.csv"))}
        bodies.append((code, doc, files))
    assert bodies[0] == bodies[1]


# ---------------------------------------------------------------------------
# the Schur and Sylvester solves reach LAPACK without scipy.linalg, bit for
# bit as scipy.linalg.schur and solve_sylvester do
# ---------------------------------------------------------------------------


@st.composite
def _scaled_matrices(draw, rows, cols):
    """A rows x cols matrix of entries in [-10, 10], some of them zero,
    times one power of ten from 1e-150 to 1e150, which takes dgees past the
    range it does not rescale (about 6.7e-139 to 1.5e138)."""
    entries = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-10.0, 10.0)
    flat = draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
    scale = 10.0 ** draw(st.integers(-150, 150))
    return scale * np.asarray(flat, dtype=np.float64).reshape(rows, cols)


@st.composite
def _schur_cases(draw):
    """A square matrix of size 1-8 and a sort callable or None; the sort is
    the split's ``re >= tol`` at a tol on the matrix's scale."""
    a = draw(_scaled_matrices(*[draw(st.integers(1, 8))] * 2))
    factor = draw(st.sampled_from([None, 0.0, 1e-8, 0.5, -0.5]))
    if factor is None:
        return a, None
    tol = factor * float(np.max(np.abs(a)))
    return a, lambda x, y: x >= tol


@st.composite
def _sylvester_cases(draw):
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    return draw(_scaled_matrices(m, m)), draw(_scaled_matrices(n, n)), draw(_scaled_matrices(m, n))


def _called(f, *args, **kwargs):
    try:
        return tuple(f(*args, **kwargs))
    except Exception as exc:  # both must raise alike
        return type(exc), str(exc)


def _same_bits(ours, theirs):
    assert len(ours) == len(theirs)
    for x, y in zip(ours, theirs):
        if isinstance(x, np.ndarray):
            assert (x.shape, x.dtype, x.tobytes()) == (y.shape, y.dtype, y.tobytes())
        else:
            assert (type(x), x) == (type(y), y)


class TestLapackWithoutScipyLinalg:
    """``spectral._schur`` and ``_solve_sylvester`` call scipy's LAPACK
    wrapper as ``scipy.linalg.schur(output="real", sort=...)`` and
    ``solve_sylvester`` do, which this test process has loaded."""

    @settings(max_examples=300, deadline=None)
    @given(case=_schur_cases())
    def test_schur_equals_scipy_bitwise(self, case):
        import scipy.linalg

        a, sort = case
        with np.errstate(all="ignore"):
            ours = _called(spectral._schur, a, sort=sort)
            theirs = _called(scipy.linalg.schur, a, output="real", sort=sort)
        _same_bits(ours, theirs)

    @settings(max_examples=300, deadline=None)
    @given(case=_sylvester_cases())
    # trsyl scales a solution that would overflow (scale 1e-150 here) and
    # perturbs a singular equation (info 1)
    @example(case=(np.array([[1e-150]]), np.array([[1e-150]]), np.array([[1e150]])))
    @example(case=(np.zeros((2, 2)), np.zeros((1, 1)), np.ones((2, 1))))
    def test_solve_sylvester_equals_scipy_bitwise(self, case):
        import scipy.linalg

        with np.errstate(all="ignore"):
            ours = _called(lambda *m: (spectral._solve_sylvester(*m),), *case)
            theirs = _called(lambda *m: (scipy.linalg.solve_sylvester(*m),), *case)
        _same_bits(ours, theirs)

    def test_same_bits_when_scipy_linalg_loads_later(self):
        # the wrapper loads first, then scipy.linalg, in a fresh interpreter
        code = textwrap.dedent("""
            import sys
            import numpy as np
            from trapcheck import spectral
            rng = np.random.default_rng(27)
            a, b, q = rng.standard_normal((3, 5, 5))
            sort = lambda x, y: x >= 0.0
            before = spectral._schur(a, sort=sort), spectral._solve_sylvester(a, b, q)
            assert "scipy.linalg" not in sys.modules
            import scipy.linalg
            ours = spectral._schur(a, sort=sort), spectral._solve_sylvester(a, b, q)
            theirs = (scipy.linalg.schur(a, output="real", sort=sort),
                      scipy.linalg.solve_sylvester(a, b, q))
            for (T, Z, k), X in (before, ours, theirs):
                print(T.tobytes().hex(), Z.tobytes().hex(), k, X.tobytes().hex())
        """)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(spectral.__file__).parents[1])},
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 3 and lines[0] == lines[1] == lines[2]

    def test_scipy_linalg_keeps_its_wrapper_in_either_import_order(self):
        # scipy.linalg loaded after the split, or before it: the package has
        # its _flapack attribute, a wrapper scipy loaded is reused, and the
        # split's P has the same bits
        code = textwrap.dedent("""
            import sys
            import numpy as np
            if sys.argv[1] == "scipy-first":
                import scipy.linalg
            from trapcheck import spectral
            H = np.array([[1.0, 0.5, 0.0], [0.2, -1.0, 0.3], [0.0, 0.4, -2.0]])
            P = spectral.split_jacobian(H).P
            assert ("scipy.linalg" in sys.modules) == (sys.argv[1] == "scipy-first")
            import scipy.linalg
            assert isinstance(scipy.linalg._flapack, type(sys))
            if sys.argv[1] == "scipy-first":
                assert spectral._flapack() is scipy.linalg._flapack
            print(P.tobytes().hex())
        """)
        outputs = []
        for order in ("trapcheck-first", "scipy-first"):
            proc = subprocess.run(
                [sys.executable, "-c", code, order], capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": str(Path(spectral.__file__).parents[1])},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] != ""
