"""Equilibrium classification from the Jacobian.

Given the Jacobian ``H = Df(x*)`` at an equilibrium, this module splits the
spectrum into the repulsive part (real part > 0) and the rest, producing a
basis change ``P`` with ``P^{-1} H P = blockdiag(H_plus, H_minus)``.  It also
constructs the adapted inner product under which a fully repulsive ``H`` is
uniformly coercive: ``<Hx, x>_S >= lam * <x, x>_S``.

The split is computed by a real Schur decomposition with eigenvalue
reordering (unstable block leading) followed by a Sylvester solve that
annihilates the remaining coupling block — a numerically stable substitute
for an abstract eigenbasis.  A diagonal ``H`` is already in real Schur
form: its split is the permutation that sorts the entries as Schur's
reordering does, with no coupling block and no Schur solve.  The Schur and
Sylvester solves call LAPACK's ``dgees`` and ``dtrsyl`` through scipy's
compiled wrapper ``scipy.linalg._flapack``, loaded alone on first use (a
non-diagonal split, :func:`adapted_inner_product`), as ``scipy.linalg.schur``
and ``solve_sylvester`` call them; no command imports ``scipy.linalg``,
whose package init costs far more than the wrapper.  Eigenvalues too close
to the imaginary axis make the classification unreliable; those inputs are
rejected rather than guessed at (see ``ambiguity band`` below).
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from typing import Tuple

import numpy as np
# the top-level package only, and at import although its LAPACK wrapper is
# used only on first use: perfbench/invoke.py reads
# sys.modules["scipy"].__version__ right after importing trapcheck.cli
import scipy

from .errors import AmbiguousSpectrumError, ConditioningError, SpectrumSignError

__all__ = [
    "TrapSplit",
    "AdaptedNorm",
    "split_jacobian",
    "adapted_inner_product",
    "project_pm",
    "default_tolerance",
]


def _frobenius(H: np.ndarray) -> float:
    """``||H||_F`` of a finite ``H``; where the plain sum of squares
    overflows, ``s * ||H / s||_F`` with ``s = max|H|``, which does not."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(H, "fro"))
    if np.isinf(norm):
        scale = float(np.max(np.abs(H)))
        norm = scale * float(np.linalg.norm(H / scale, "fro"))
    return norm


def default_tolerance(H: np.ndarray) -> float:
    """Scale-relative spectral tolerance: ``1e-8 * ||H||_F`` (floored away
    from zero so the zero matrix still classifies as a center)."""
    return max(1e-8 * _frobenius(H), 1e-300)


@dataclass(frozen=True, eq=False)
class TrapSplit:
    """Block split of a Jacobian into repulsive and non-repulsive parts.

    ``P^{-1} H P = blockdiag(H_plus, H_minus)`` with every eigenvalue of
    ``H_plus`` of positive real part and every eigenvalue of ``H_minus`` of
    real part <= tol.  ``mu`` is the largest real part over the ``H_minus``
    spectrum (0 by convention when ``delta_minus == 0``); tiny values within
    the dead zone ``|Re| <= tol/10`` are clamped to exactly 0.
    """

    P: np.ndarray
    P_inv: np.ndarray = field(repr=False)
    H_plus: np.ndarray
    H_minus: np.ndarray
    delta_plus: int
    delta_minus: int
    mu: float
    classification: str
    eigenvalues: np.ndarray = field(repr=False)
    tol: float

    @property
    def dim(self) -> int:
        return self.delta_plus + self.delta_minus

    def block_diagonal(self) -> np.ndarray:
        """The matrix ``blockdiag(H_plus, H_minus)`` in the split basis."""
        d = self.dim
        out = np.zeros((d, d))
        k = self.delta_plus
        out[:k, :k] = self.H_plus
        out[k:, k:] = self.H_minus
        return out

    def to_dict(self) -> dict:
        return {
            "delta_plus": int(self.delta_plus),
            "delta_minus": int(self.delta_minus),
            "mu": float(self.mu),
            "classification": self.classification,
            "tol": float(self.tol),
            "eigenvalues_real": [float(v) for v in np.sort(self.eigenvalues.real)],
        }


@dataclass(frozen=True, eq=False)
class AdaptedNorm:
    """Inner product ``<x, y>_S = x^T S y`` adapted to a repulsive matrix.

    ``S`` solves the Lyapunov equation ``H^T S + S H = 2 I`` and is symmetric
    positive-definite; ``lam = 1 / lambda_max(S)`` is the coercivity constant:
    ``x^T S H x = ||x||^2 >= lam * x^T S x`` for every ``x``.
    """

    S: np.ndarray
    lam: float


def _square_finite(H) -> np.ndarray:
    """``H`` as a float64 array; a ValueError unless it is square and finite."""
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    if not np.all(np.isfinite(H)):
        raise ValueError("matrix has non-finite entries")
    return H


def _classify(delta_plus: int, dim: int, mu: float) -> str:
    if delta_plus == dim:
        return "repulsive"
    if delta_plus >= 1:
        return "unstable_hyperbolic" if mu < 0 else "unstable_nonhyperbolic"
    return "stable" if mu < 0 else "center"


@functools.cache
def _flapack():
    """scipy's LAPACK wrapper ``scipy.linalg._flapack``, loaded from its
    file on first use without running ``scipy/linalg/__init__.py``.  The
    loader enters it in ``sys.modules``, so a later ``import scipy.linalg``
    uses this module."""
    spec = PathFinder.find_spec(
        "scipy.linalg._flapack", [os.path.join(scipy.__path__[0], "linalg")]
    )
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# _schur and _solve_sylvester follow scipy 1.17.1's scipy.linalg.schur(a,
# output="real", sort=callable) and solve_sylvester(a, b, q) call for call on
# a finite, non-empty float64 matrix (the only kind split_jacobian and
# adapted_inner_product pass), so their bits and exceptions are scipy's.


def _schur(a: np.ndarray, sort=None):
    """``(T, Z)`` with ``a = Z T Z^T``, or ``(T, Z, sdim)`` with ``sort``:
    the real Schur form with the eigenvalues ``sort(re, im)`` accepts first."""
    gees = _flapack().dgees
    result = gees(lambda x: None, a, lwork=-1)  # workspace query
    lwork = result[-2][0].real.astype(np.int_)
    sort_t = 0 if sort is None else 1
    result = gees(sort or (lambda x, y=None: None), a, lwork=lwork, sort_t=sort_t)
    info = result[-1]
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gees")
    elif info == a.shape[0] + 1:
        raise np.linalg.LinAlgError("Eigenvalues could not be separated for reordering.")
    elif info == a.shape[0] + 2:
        raise np.linalg.LinAlgError("Leading eigenvalues do not satisfy sort condition.")
    elif info > 0:
        raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    if sort is None:
        return result[0], result[-3]
    return result[0], result[-3], result[1]


def _solve_sylvester(a: np.ndarray, b: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``X`` with ``a X + X b = q`` (Bartels-Stewart)."""
    r, u = _schur(a)
    s, v = _schur(b.T)
    f = np.dot(np.dot(u.T, q), v)
    y, scale, info = _flapack().dtrsyl(r, s, f, tranb="C")
    y = scale * y
    if info < 0:
        raise np.linalg.LinAlgError(f"Illegal value encountered in the {-info} term")
    return np.dot(np.dot(u, y), v.T)


def _diagonal_blocks(H: np.ndarray, tol: float):
    """``(P, P_inv, H_plus, H_minus)`` of a diagonal ``H``, which is already
    in real Schur form: ``P`` is the permutation that puts the entries
    ``>= tol`` first, each block in its order in ``H`` (the order schur's
    ``sort`` keeps), and there is no coupling block to solve away."""
    h = np.diagonal(H)
    order = np.argsort(h < tol, kind="stable")
    k = int(np.count_nonzero(h >= tol))
    P = np.eye(H.shape[0])[:, order]
    return P, P.T, np.diag(h[order[:k]]), np.diag(h[order[k:]])


def _schur_blocks(H: np.ndarray, tol: float):
    """``(P, P_inv, H_plus, H_minus)`` from a real Schur form sorted by
    ``Re >= tol`` and a Sylvester solve that removes the coupling block."""
    d = H.shape[0]
    T, Q, sdim = _schur(H, sort=lambda x, y: x >= tol)
    k = int(sdim)
    if k == 0 or k == d:
        return Q, Q.T, T[:k, :k].copy(), T[k:, k:].copy()
    T11, T12, T22 = T[:k, :k], T[:k, k:], T[k:, k:]
    # decouple: T11 Y - Y T22 = -T12  =>  [[I, Y],[0, I]] conjugation
    try:
        Y = _solve_sylvester(T11, -T22, -T12)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"block decoupling failed: {exc}") from exc
    R = np.eye(d)
    R[:k, k:] = Y
    R_inv = np.eye(d)
    R_inv[:k, k:] = -Y
    return Q @ R, R_inv @ Q.T, T11.copy(), T22.copy()


def split_jacobian(H: np.ndarray, tol: float | None = None) -> TrapSplit:
    """Split a Jacobian into its repulsive and non-repulsive blocks.

    A diagonal ``H`` is split by a permutation (:func:`_diagonal_blocks`),
    any other by Schur and Sylvester (:func:`_schur_blocks`); the checks
    after the split are the same for both.

    Parameters
    ----------
    H : (d, d) real array
    tol : positive float, optional
        Spectral threshold; eigenvalues with real part >= tol go to the
        repulsive block, real part <= tol/10 in magnitude are treated as
        exactly zero, and anything with ``|Re| strictly inside (tol/10, tol)``
        is rejected as ambiguous.  Defaults to ``1e-8 * ||H||_F``.

    Raises
    ------
    ValueError
        Non-square or non-finite input, or tol <= 0.
    AmbiguousSpectrumError
        Some eigenvalue's real part falls in the ambiguity band.
    ConditioningError
        The Sylvester decoupling failed to reach the residual target.
    """
    H = _square_finite(H)
    d = H.shape[0]
    if tol is None:
        tol = default_tolerance(H)
    if tol <= 0:
        raise ValueError("tol must be positive")

    eigenvalues = np.linalg.eigvals(H)
    re = eigenvalues.real
    band = (np.abs(re) > tol / 10.0) & (np.abs(re) < tol)
    if np.any(band):
        offenders = eigenvalues[band]
        raise AmbiguousSpectrumError(
            "eigenvalue real part inside the ambiguity band "
            f"({tol / 10.0:.3e}, {tol:.3e}): {offenders}",
            offenders=offenders,
        )

    diagonal = not H[~np.eye(d, dtype=bool)].any()
    P, P_inv, H_plus, H_minus = (_diagonal_blocks if diagonal else _schur_blocks)(H, tol)
    k = H_plus.shape[0]

    if d - k == 0:
        mu = 0.0
    else:
        mu = float(np.max(np.linalg.eigvals(H_minus).real))
        if abs(mu) <= tol / 10.0:
            mu = 0.0
    split = TrapSplit(
        P=P,
        P_inv=P_inv,
        H_plus=H_plus,
        H_minus=H_minus,
        delta_plus=k,
        delta_minus=d - k,
        mu=mu,
        classification=_classify(k, d, mu),
        eigenvalues=eigenvalues,
        tol=float(tol),
    )

    h_norm = _frobenius(H)
    residual = float(np.linalg.norm(P_inv @ H @ P - split.block_diagonal(), "fro"))
    if residual > 1e-8 * (1.0 + h_norm):
        raise ConditioningError(
            f"split residual {residual:.3e} exceeds 1e-8*(1+||H||_F)={1e-8 * (1 + h_norm):.3e}"
        )
    if mu > 0:
        raise SpectrumSignError(
            f"non-repulsive block has an eigenvalue with real part {mu} > 0"
        )
    return split


def adapted_inner_product(H_plus: np.ndarray) -> AdaptedNorm:
    """Adapted inner product for a repulsive matrix.

    Solves ``H^T S + S H = 2 I`` with the Sylvester solver the split uses
    (Bartels-Stewart, O(d^3)) and returns ``S`` together with the coercivity
    constant ``lam = 1/lambda_max(S)``.

    Raises
    ------
    SpectrumSignError
        Some eigenvalue of ``H_plus`` has non-positive real part.
    ConditioningError
        The solve's residual exceeds 1e-6, or S fails to be positive-definite
        numerically.
    """
    H = _square_finite(H_plus)
    d = H.shape[0]
    if d == 0:
        raise ValueError("empty matrix has no adapted norm")

    re = np.linalg.eigvals(H).real
    if np.min(re) <= 0:
        raise SpectrumSignError(
            f"matrix is not repulsive: min eigenvalue real part {np.min(re):.3e} <= 0"
        )

    eye = np.eye(d)
    S = _solve_sylvester(H.T, H, 2.0 * eye)
    S = 0.5 * (S + S.T)

    residual = float(np.linalg.norm(H.T @ S + S @ H - 2.0 * eye, "fro"))
    if residual > 1e-6:
        raise ConditioningError(
            f"Lyapunov residual {residual:.3e} exceeds 1e-6 (ill-conditioned spectrum?)"
        )
    evals = np.linalg.eigvalsh(S)
    if evals[0] <= 0:
        raise ConditioningError(
            f"adapted metric lost positive-definiteness numerically (min eig {evals[0]:.3e})"
        )
    return AdaptedNorm(S=S, lam=float(1.0 / evals[-1]))


def project_pm(
    split: TrapSplit, x: np.ndarray, x_star: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Coordinates of ``x - x_star`` in the split basis.

    Returns ``(y_plus, y_minus)`` with ``y = P^{-1}(x - x_star)`` partitioned
    into the first ``delta_plus`` and last ``delta_minus`` components.  Accepts
    a single d-vector or a batch of shape ``(..., d)`` (partition along the
    last axis).
    """
    x = np.asarray(x, dtype=np.float64)
    x_star = np.asarray(x_star, dtype=np.float64)
    d = split.dim
    if x.shape[-1] != d or x_star.shape[-1] != d:
        raise ValueError(
            f"dimension mismatch: split is {d}-dimensional, "
            f"x has {x.shape[-1]}, x_star has {x_star.shape[-1]}"
        )
    y = (x - x_star) @ split.P_inv.T
    return y[..., : split.delta_plus], y[..., split.delta_plus :]
