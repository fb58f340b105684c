"""Shared fixtures and deterministic random-matrix generators."""

import tracemalloc

import numpy as np
import pytest


def real_matrix_with_spectrum(rng, dim, re_lo, re_hi, allow_complex=True, cond_spread=2.0):
    """Random real matrix whose eigenvalue real parts lie in [re_lo, re_hi].

    Built as T B T^-1 with B block-diagonal (1x1 real blocks and 2x2 blocks
    [[a, b], [-b, a]] for complex pairs a +/- ib) and T a random orthogonal
    matrix times a diagonal scaling, so the spectrum is exactly known and the
    similarity stays well conditioned.
    """
    B = np.zeros((dim, dim))
    i = 0
    while i < dim:
        a = rng.uniform(re_lo, re_hi)
        if allow_complex and i + 1 < dim and rng.random() < 0.5:
            b = rng.uniform(0.2, 2.0)
            B[i : i + 2, i : i + 2] = [[a, b], [-b, a]]
            i += 2
        else:
            B[i, i] = a
            i += 1
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    T = Q @ np.diag(rng.uniform(1.0 / cond_spread, cond_spread, size=dim))
    return T @ B @ np.linalg.inv(T)


def random_repulsive(rng, dim):
    """All eigenvalue real parts in [0.05, 3]."""
    return real_matrix_with_spectrum(rng, dim, 0.05, 3.0)


def random_split_matrix(rng, dim, min_gap=1e-2):
    """Mixed-sign spectrum with every real part at least min_gap off the axis."""
    H = np.zeros((dim, dim))
    i = 0
    B = np.zeros((dim, dim))
    while i < dim:
        sign = 1.0 if rng.random() < 0.5 else -1.0
        a = sign * rng.uniform(min_gap, 3.0)
        if i + 1 < dim and rng.random() < 0.5:
            b = rng.uniform(0.2, 2.0)
            B[i : i + 2, i : i + 2] = [[a, b], [-b, a]]
            i += 2
        else:
            B[i, i] = a
            i += 1
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    T = Q @ np.diag(rng.uniform(0.5, 2.0, size=dim))
    H = T @ B @ np.linalg.inv(T)
    return H


def traced_peak(fn):
    """Peak bytes ``fn()`` allocates above what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260815)
