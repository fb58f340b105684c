"""Shared fixtures and deterministic random-matrix generators."""

import concurrent.futures
import pickle
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


def rule_means(norms, ns, blowup_step, power=None, projected=False):
    """The cross-run mean of ``norms`` (runs, steps) raised to ``power`` at
    each captured step ``ns``, one step at a time, over the runs that had not
    blown up before the step (``blowup_step`` 0 or above it): for the full
    vector numpy's mean of their contiguous values, for a projection their
    sum in run order over their count.  A step where no run counts has no
    mean: NaN, as the engine's 0/0."""
    out = []
    for n, col in zip(ns, np.asarray(norms).T):
        vals = np.ascontiguousarray(col[(blowup_step == 0) | (n < blowup_step)])
        if not len(vals):
            out.append(np.nan)
            continue
        if power is not None:
            vals = vals**power
        if projected:
            total = 0.0
            for v in vals.tolist():
                total += v
            out.append(total / len(vals))
        else:
            out.append(np.mean(vals))
    return np.array(out)


class InProcessPool:
    """A stand-in for ``ProcessPoolExecutor`` that runs each task in this
    process as it is submitted, so a pooled ensemble starts no process.
    Each task's arguments and its result cross ``pickle`` as they cross a
    real pool, so what a real pool cannot send fails here too."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        result = fn(*pickle.loads(pickle.dumps(args)))
        future.set_result(pickle.loads(pickle.dumps(result)))
        return future


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260815)
