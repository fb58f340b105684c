"""Equilibrium classification from the Jacobian.

Given the Jacobian ``H = Df(x*)`` at an equilibrium, this module splits the
spectrum into the repulsive part (real part > 0) and the rest, producing a
basis change ``P`` with ``P^{-1} H P = blockdiag(H_plus, H_minus)``.  It also
constructs the adapted inner product under which a fully repulsive ``H`` is
uniformly coercive: ``<Hx, x>_S >= lam * <x, x>_S``.

The split is computed by a real Schur decomposition with eigenvalue
reordering (unstable block leading) followed by a Sylvester solve that
annihilates the remaining coupling block — a numerically stable substitute
for an abstract eigenbasis.  Eigenvalues too close to the imaginary axis make
the classification unreliable; those inputs are rejected rather than guessed
at (see ``ambiguity band`` below).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np
import scipy  # scipy.linalg (schur, solve_sylvester) loads on first use, not at import

from .errors import AmbiguousSpectrumError, ConditioningError, SpectrumSignError

__all__ = [
    "TrapSplit",
    "AdaptedNorm",
    "split_jacobian",
    "adapted_inner_product",
    "project_pm",
    "default_tolerance",
]

_CLASSIFICATIONS = (
    "repulsive",
    "unstable_hyperbolic",
    "unstable_nonhyperbolic",
    "stable",
    "center",
)

#: Dimension cap for the dense Kronecker-vectorized Lyapunov solve.
_MAX_LYAPUNOV_DIM = 64


def default_tolerance(H: np.ndarray) -> float:
    """Scale-relative spectral tolerance: ``1e-8 * ||H||_F`` (floored away
    from zero so the zero matrix still classifies as a center)."""
    return max(1e-8 * float(np.linalg.norm(H, "fro")), 1e-300)


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

    def to_dict(self) -> dict:
        return {"S": self.S.tolist(), "lambda": float(self.lam)}


def _classify(delta_plus: int, dim: int, mu: float) -> str:
    if delta_plus == dim:
        return "repulsive"
    if delta_plus >= 1:
        return "unstable_hyperbolic" if mu < 0 else "unstable_nonhyperbolic"
    return "stable" if mu < 0 else "center"


def split_jacobian(H: np.ndarray, tol: float | None = None) -> TrapSplit:
    """Split a Jacobian into its repulsive and non-repulsive blocks.

    Parameters
    ----------
    H : (d, d) real array
    tol : positive float, optional
        Spectral threshold; eigenvalues with real part > tol go to the
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
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    if not np.all(np.isfinite(H)):
        raise ValueError("matrix has non-finite entries")
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

    T, Q, sdim = scipy.linalg.schur(
        H, output="real", sort=lambda x, y: x >= tol
    )
    k = int(sdim)

    if k == 0 or k == d:
        P = Q
        P_inv = Q.T
        H_plus = T[:k, :k].copy()
        H_minus = T[k:, k:].copy()
    else:
        T11, T12, T22 = T[:k, :k], T[:k, k:], T[k:, k:]
        # decouple: T11 Y - Y T22 = -T12  =>  [[I, Y],[0, I]] conjugation
        try:
            Y = scipy.linalg.solve_sylvester(T11, -T22, -T12)
        except np.linalg.LinAlgError as exc:
            raise ConditioningError(f"block decoupling failed: {exc}") from exc
        R = np.eye(d)
        R[:k, k:] = Y
        R_inv = np.eye(d)
        R_inv[:k, k:] = -Y
        P = Q @ R
        P_inv = R_inv @ Q.T
        H_plus = T11.copy()
        H_minus = T22.copy()

    block = np.zeros((d, d))
    block[:k, :k] = H_plus
    block[k:, k:] = H_minus
    h_norm = float(np.linalg.norm(H, "fro"))
    residual = float(np.linalg.norm(P_inv @ H @ P - block, "fro"))
    if residual > 1e-8 * (1.0 + h_norm):
        raise ConditioningError(
            f"split residual {residual:.3e} exceeds 1e-8*(1+||H||_F)={1e-8 * (1 + h_norm):.3e}"
        )

    if d - k == 0:
        mu = 0.0
    else:
        mu = float(np.max(np.linalg.eigvals(H_minus).real))
        if abs(mu) <= tol / 10.0:
            mu = 0.0
    if mu > 0:
        raise SpectrumSignError(
            f"non-repulsive block has an eigenvalue with real part {mu} > 0"
        )

    return TrapSplit(
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


def adapted_inner_product(H_plus: np.ndarray) -> AdaptedNorm:
    """Adapted inner product for a repulsive matrix.

    Solves ``H^T S + S H = 2 I`` via the Kronecker-vectorized dense linear
    system (exact for the sizes in scope) and returns ``S`` together with the
    coercivity constant ``lam = 1/lambda_max(S)``.

    Raises
    ------
    SpectrumSignError
        Some eigenvalue of ``H_plus`` has non-positive real part.
    ConditioningError
        The solve's residual exceeds 1e-6, or S fails to be positive-definite
        numerically.
    ValueError
        Dimension above the supported dense-solve cap.
    """
    H = np.asarray(H_plus, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    if not np.all(np.isfinite(H)):
        raise ValueError("matrix has non-finite entries")
    d = H.shape[0]
    if d == 0:
        raise ValueError("empty matrix has no adapted norm")
    if d > _MAX_LYAPUNOV_DIM:
        raise ValueError(f"dimension {d} exceeds the dense Lyapunov cap {_MAX_LYAPUNOV_DIM}")

    re = np.linalg.eigvals(H).real
    if np.min(re) <= 0:
        raise SpectrumSignError(
            f"matrix is not repulsive: min eigenvalue real part {np.min(re):.3e} <= 0"
        )

    eye = np.eye(d)
    A = np.kron(eye, H.T) + np.kron(H.T, eye)
    S = np.linalg.solve(A, 2.0 * eye.reshape(-1)).reshape(d, d)
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
