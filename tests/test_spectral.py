import numpy as np
import pytest
from numpy.testing import assert_allclose

from trapcheck import (
    AmbiguousSpectrumError,
    SpectrumSignError,
    adapted_inner_product,
    default_tolerance,
    project_pm,
    split_jacobian,
)
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


def test_to_dict_serializable():
    sp = split_jacobian(np.diag([1.0, -2.0]))
    d = sp.to_dict()
    assert d["delta_plus"] == 1 and d["classification"] == "unstable_hyperbolic"
