"""Built-in process definitions.

Every model supplies the three pieces of one recursion step at state ``x`` and
step index ``n`` (0-based):

* ``g``   — drift term (multiplied by ``gamma_{n+1}`` by the engine),
* ``eps`` — martingale noise with conditional mean zero (multiplied by ``c_{n+1}``),
* ``rem`` — remainder (also multiplied by ``c_{n+1}``).

Models are vectorized across a batch of independent runs: states have shape
``(B, d)`` and randomness enters only through pre-drawn uniform doubles
(``raw``, shape ``(B, n_raw)``), one block per run per step.  Every operation
is row-wise and elementwise (matrix products are accumulated column by column
in a fixed order), so a run's floating-point path is bit-identical whether it
executes alone or inside any batch — the engine's determinism contract rests
on this.

Models must stay picklable (process-pool workers receive them by value), so
behavioral knobs are plain strings/arrays rather than closures.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import SingularDenominatorError, StuckWalkError

__all__ = [
    "ManifoldK",
    "TrapInfo",
    "Model",
    "LinearModel",
    "SyntheticModel",
    "synthetic_field",
    "VrrwConfig",
    "vrrw_field",
    "vrrw_jacobian",
    "VrrwWalkModel",
    "MeanFieldVrrwModel",
    "control_models",
]


def _as_batch(x: np.ndarray) -> tuple[np.ndarray, tuple]:
    """View ``x`` with shape (..., d) as (B, d); return it with the lead shape."""
    x = np.asarray(x, dtype=np.float64)
    lead = x.shape[:-1]
    return x.reshape(-1, x.shape[-1]), lead


def _apply_matrix(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row-wise ``M @ x[b]`` for ``x`` of shape (..., d).

    Accumulates column contributions in a fixed order instead of delegating to
    a shape-dependent BLAS kernel, so each row's result is independent of the
    batch size.
    """
    xb, lead = _as_batch(x)
    out = np.zeros_like(xb)
    for j in range(M.shape[1]):
        out += xb[:, j : j + 1] * M[:, j][None, :]
    return out.reshape(*lead, M.shape[0])


def _rademacher(raw: np.ndarray) -> np.ndarray:
    """Map uniform doubles in [0,1) to ±1 with equal probability."""
    return np.where(raw < 0.5, -1.0, 1.0)


@dataclass(frozen=True, eq=False)
class ManifoldK:
    """Affine set ``basepoint + span(directions)`` (the locally invariant set
    the process is attracted to before escaping along it)."""

    basepoint: np.ndarray
    directions: np.ndarray  # shape (d, k), columns spanning the affine part

    @cached_property
    def orthonormal_basis(self) -> np.ndarray:
        D = np.atleast_2d(np.asarray(self.directions, dtype=np.float64))
        if D.shape[0] == len(self.basepoint) and D.ndim == 2:
            q, r = np.linalg.qr(D)
            keep = np.abs(np.diag(r)) > 1e-12 * max(1.0, np.abs(r).max())
            return q[:, keep]
        raise ValueError("directions must be a (d, k) matrix")

    def distance(self, x: np.ndarray) -> np.ndarray:
        """Euclidean distance of ``x`` (shape (..., d)) to the affine set."""
        u = np.asarray(x, dtype=np.float64) - self.basepoint
        q = self.orthonormal_basis
        proj = (u @ q) @ q.T
        return np.linalg.norm(u - proj, axis=-1)


@dataclass(frozen=True, eq=False)
class TrapInfo:
    """Declared equilibrium data: the point, the Jacobian of the drift field
    there, and (when the model derives them) the contraction rate ``mu`` of
    the non-repulsive block and the tangency exponent ``nu``."""

    x_star: np.ndarray
    jacobian: np.ndarray
    mu: Optional[float] = None
    nu: Optional[float] = None


class Model:
    """Base class; subclasses fill in the step pieces.

    Attributes
    ----------
    id : str
    dim : int
    n_raw : int
        Uniform doubles consumed per run per step.
    trap : TrapInfo or None
    manifold_K : ManifoldK or None
    """

    id: str = "model"
    dim: int = 1
    n_raw: int = 0
    trap: Optional[TrapInfo] = None
    manifold_K: Optional[ManifoldK] = None

    # -- deterministic structure ------------------------------------------------

    def field(self, x: np.ndarray) -> np.ndarray:
        """The drift field f evaluated at states of shape (..., d)."""
        raise NotImplementedError

    def initial_state(self) -> np.ndarray:
        """A sensible default start point (models may override)."""
        return np.zeros(self.dim)

    # -- stochastic step pieces ---------------------------------------------------

    def drift(self, x: np.ndarray, n: int) -> np.ndarray:
        return self.field(x)

    def noise(self, x: np.ndarray, n: int, raw: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def remainder(self, x: np.ndarray, n: int) -> np.ndarray:
        return np.zeros_like(x)

    def init_aux(self, n_runs: int):
        """Per-batch mutable walk state; None for state-free models."""
        return None

    def step_parts(self, x: np.ndarray, n: int, raw: np.ndarray, aux):
        """(g, eps, rem, aux) for a batch of states x (B, d) at step n."""
        return self.drift(x, n), self.noise(x, n, raw), self.remainder(x, n), aux


# ---------------------------------------------------------------------------
# linear models
# ---------------------------------------------------------------------------


class LinearModel(Model):
    """Drift ``G_n = H X_n`` with configurable noise and remainder.

    noise_kind:
        ``"rademacher"``  independent ±1 per coordinate,
        ``"none"``        eps ≡ 0 (degenerate control),
        ``"stable_only"`` ±1 per coordinate but zeroed on the first
                          ``unstable_dims`` coordinates (never excites the
                          repulsive directions).
    remainder_kind:
        ``"none"`` or ``"inv_sqrt"`` (r_n = 1/sqrt(n), not square-summable).
    """

    def __init__(
        self,
        H,
        noise_kind: str = "rademacher",
        remainder_kind: str = "none",
        unstable_dims: int = 1,
        id: Optional[str] = None,
    ):
        H = np.atleast_2d(np.asarray(H, dtype=np.float64))
        if H.shape[0] != H.shape[1]:
            raise ValueError("H must be square")
        if noise_kind not in ("rademacher", "none", "stable_only"):
            raise ValueError(f"unknown noise_kind {noise_kind!r}")
        if remainder_kind not in ("none", "inv_sqrt"):
            raise ValueError(f"unknown remainder_kind {remainder_kind!r}")
        self.H = H
        self.dim = H.shape[0]
        self.noise_kind = noise_kind
        self.remainder_kind = remainder_kind
        self.unstable_dims = int(unstable_dims)
        self.n_raw = 0 if noise_kind == "none" else self.dim
        self.id = id or f"linear_{self.dim}d_{noise_kind}"
        self.trap = TrapInfo(x_star=np.zeros(self.dim), jacobian=H.copy())

    def field(self, x):
        return _apply_matrix(self.H, x)

    def noise(self, x, n, raw):
        if self.noise_kind == "none":
            return np.zeros_like(x)
        eps = _rademacher(raw)
        if self.noise_kind == "stable_only":
            eps = eps.copy()
            eps[..., : self.unstable_dims] = 0.0
        return eps

    def remainder(self, x, n):
        if self.remainder_kind == "inv_sqrt":
            return np.full_like(x, 1.0 / np.sqrt(n + 1.0))
        return np.zeros_like(x)


# ---------------------------------------------------------------------------
# the rectified synthetic model
# ---------------------------------------------------------------------------


def synthetic_field(
    x: np.ndarray,
    delta_plus: int,
    mu: float,
    nu: float,
    f_plus: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> np.ndarray:
    """Piecewise-built field: repulsive head driven by the rectified vector,
    contracting tail proportional to the coordinates themselves.

    With ``y`` the rectified vector (``y_i = x_i`` for ``i < delta_plus``,
    ``y_i = |x_i|**(1+nu)`` otherwise):

        f_i(x) = F_plus_i(y)   for i < delta_plus
        f_i(x) = mu * x_i      otherwise

    The default ``F_plus`` is the identity on the head coordinates, giving
    ``f(x) = (x_head, mu * x_tail)``.  The tail coordinates influence the head
    only through ``|x_i|**(1+nu)``, which is what makes the exponent ``nu``
    meaningful for the rate condition.
    """
    xb, lead = _as_batch(x)
    k = int(delta_plus)
    out = np.empty_like(xb)
    if f_plus is None:
        out[:, :k] = xb[:, :k]  # the identity head never reads the rectified tail
    else:
        y = xb.copy()
        y[:, k:] = np.abs(xb[:, k:]) ** (1.0 + nu)
        head = np.asarray(f_plus(y), dtype=np.float64)
        if head.shape != (xb.shape[0], k):
            raise ValueError(f"f_plus must return shape (B, {k}), got {head.shape}")
        out[:, :k] = head
    np.multiply(mu, xb[:, k:], out=out[:, k:])
    return out.reshape(*lead, xb.shape[1])


class SyntheticModel(Model):
    """SA model around the rectified synthetic field with Rademacher noise.

    The equilibrium at 0 has Jacobian ``blockdiag(jac_plus, mu*I)`` (the
    rectified tail contributes nothing to the head derivatives at 0), the
    invariant set is the head-coordinate plane, and the declared constants are
    exactly (mu, nu).
    """

    def __init__(
        self,
        mu: float = -1.0,
        nu: float = 1.0,
        dim: int = 2,
        delta_plus: int = 1,
        f_plus: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        jac_plus: Optional[np.ndarray] = None,
        id: str = "synthetic",
    ):
        if not (0 < delta_plus < dim):
            raise ValueError("need 0 < delta_plus < dim")
        if mu >= 0:
            raise ValueError("mu must be negative")
        if nu <= 0:
            raise ValueError("nu must be positive")
        self.mu = float(mu)
        self.nu = float(nu)
        self.dim = int(dim)
        self.delta_plus = int(delta_plus)
        self.f_plus = f_plus
        self.n_raw = self.dim
        self.id = id
        jp = np.eye(delta_plus) if jac_plus is None else np.asarray(jac_plus, float)
        jac = np.zeros((dim, dim))
        jac[:delta_plus, :delta_plus] = jp
        jac[delta_plus:, delta_plus:] = mu * np.eye(dim - delta_plus)
        self.trap = TrapInfo(
            x_star=np.zeros(dim), jacobian=jac, mu=self.mu, nu=self.nu
        )
        self.manifold_K = ManifoldK(
            basepoint=np.zeros(dim), directions=np.eye(dim)[:, :delta_plus]
        )

    def field(self, x):
        return synthetic_field(x, self.delta_plus, self.mu, self.nu, self.f_plus)

    def noise(self, x, n, raw):
        return _rademacher(raw)


# ---------------------------------------------------------------------------
# vertex-reinforced random walk
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class VrrwConfig:
    """Reinforced-walk parameters: vertex count, reinforcement exponent,
    symmetric interaction matrix with constant row sums, initial counts."""

    d: int
    alpha: float
    A: np.ndarray
    initial_counts: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=np.float64))
        counts = self.initial_counts
        if counts is None:
            counts = (1,) * int(self.d)
        object.__setattr__(self, "initial_counts", tuple(int(c) for c in counts))
        if self.d < 2:
            raise ValueError("need at least 2 vertices")
        if self.alpha < 1.0:
            raise ValueError("reinforcement exponent must be >= 1")
        A = self.A
        if A.shape != (self.d, self.d):
            raise ValueError(f"A must be {self.d}x{self.d}, got {A.shape}")
        if np.any(A < 0):
            raise ValueError("A must be nonnegative")
        scale = max(1.0, float(np.abs(A).max()))
        if np.abs(A - A.T).max() > 1e-12 * scale:
            raise ValueError("A must be symmetric")
        off = A[~np.eye(self.d, dtype=bool)]
        if np.any(off <= 0):
            raise ValueError("off-diagonal entries of A must be positive")
        rowsums = A.sum(axis=1)
        if rowsums.max() - rowsums.min() > 1e-12 * max(1.0, rowsums.max()):
            raise ValueError("row sums of A must be constant")
        if len(self.initial_counts) != self.d:
            raise ValueError("initial_counts must have one entry per vertex")
        if min(self.initial_counts) < 1:
            raise ValueError("initial counts must be positive")

    @staticmethod
    def complete(d: int, alpha: float, initial_counts=None) -> "VrrwConfig":
        """Complete-graph shorthand: A = all-ones minus the identity."""
        A = np.ones((d, d)) - np.eye(d)
        if initial_counts is None:
            initial_counts = (1,) * d
        return VrrwConfig(d=d, alpha=alpha, A=A, initial_counts=tuple(initial_counts))

    @property
    def total0(self) -> int:
        return int(sum(self.initial_counts))

    @property
    def uniform(self) -> np.ndarray:
        return np.full(self.d, 1.0 / self.d)


def _pairwise_sum(cols: np.ndarray) -> np.ndarray:
    """numpy's pairwise summation of ``cols[0], ..., cols[n-1]``, one column
    per term: in order up to 7 terms, eight interleaved accumulators up to
    128, and halves cut at a multiple of 8 above that."""
    n = len(cols)
    if n < 8:
        out = cols[0] + 0.0  # the running sum starts from +0.0
        for c in cols[1:]:
            out += c
        return out
    if n <= 128:
        r = cols[:8].copy()
        stop = n - n % 8
        for i in range(8, stop, 8):
            r += cols[i : i + 8]
        out = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for c in cols[stop:]:
            out += c
        return out
    half = n // 2 - (n // 2) % 8
    return _pairwise_sum(cols[:half]) + _pairwise_sum(cols[half:])


def _row_sum(cols: np.ndarray) -> np.ndarray:
    """Sum over the leading axis of ``cols`` (shape (n, B)), with the bits of
    ``np.sum(cols.T, axis=1)`` on C-contiguous rows.

    That reduction starts from +0.0 and adds each row's pairwise sum (see
    :func:`_pairwise_sum`); this helper adds the same terms in the same order,
    one whole column per operation, so a run's sums do not depend on the
    layout the batch is kept in.  A plain left fold differs from ``np.sum``
    from n = 8 on.  Below 8 terms the running sum starts at +0.0 and can
    never be -0.0, so the outer ``0.0 +`` is skipped.  Non-NaN results are
    bitwise equal; which NaN survives when two meet follows the operand
    order numpy's compiler chose, and is not reproduced.
    """
    if len(cols) < 8:
        return _pairwise_sum(cols)
    return 0.0 + _pairwise_sum(cols)


def _cumsum_cols(cols: np.ndarray) -> np.ndarray:
    """Running sums over the leading axis of ``cols`` (shape (n, B)), bitwise
    ``np.cumsum`` along it, with one operation per column instead of one
    inner loop per run."""
    out = np.empty_like(cols)
    out[0] = cols[0]
    for j in range(1, len(cols)):
        np.add(out[j - 1], cols[j], out=out[j])
    return out


def _vrrw_pieces(vt: np.ndarray, cfg: VrrwConfig):
    """(P, H) at states given as columns ``vt`` (shape (d, B), one column per
    run): ``P_i = v_i^alpha S_i`` with ``S_i = sum_j A_ij v_j^alpha``, and
    ``H = sum_i P_i``, so ``pi = P / H`` is the walker's stationary law.

    The column form does each step as one operation over all runs (a
    ``(B, 1)`` broadcast or an ``axis=1`` reduction costs one inner loop per
    run).  S accumulates ``A_ij v_j^alpha`` in order j = 0..d-1 from zero and
    H adds as ``np.sum(..., axis=1)`` does (:func:`_row_sum`), so each run's
    bits equal the row-wise formulas and do not depend on the batch.
    """
    v_alpha = vt**cfg.alpha
    S = np.zeros(vt.shape)
    for j, A_j in enumerate(cfg.A.T[:, :, None]):
        S += A_j * v_alpha[j]
    P = v_alpha * S
    return P, _row_sum(P)


def vrrw_field(v: np.ndarray, cfg: VrrwConfig, validate: bool = True) -> np.ndarray:
    """Mean-field drift of the occupation measure:
    ``f_i(v) = -v_i + v_i^alpha * (A v^alpha)_i / H(v)``.

    Sums to zero on the probability simplex (the occupation measure stays a
    probability vector).  ``validate=True`` additionally enforces the simplex
    precondition; the normalization ``H(v) > 0`` is always required.
    """
    vb, lead = _as_batch(v)
    if vb.shape[-1] != cfg.d:
        raise ValueError(f"expected {cfg.d}-dimensional points, got {vb.shape[-1]}")
    if validate:
        if np.abs(vb.sum(axis=1) - 1.0).max() > 1e-9 or vb.min() < -1e-12:
            raise ValueError("points must lie on the probability simplex")
    P, H = _vrrw_pieces(vb.T, cfg)
    if (H <= 0.0).any() or not np.isfinite(H).all():
        raise SingularDenominatorError(
            "interaction normalization H(v) is not positive at some point"
        )
    f = (P / H).T - vb  # row-major again, like the input
    return f.reshape(*lead, cfg.d)


def vrrw_jacobian(v: np.ndarray, cfg: VrrwConfig) -> np.ndarray:
    """Analytic Jacobian of :func:`vrrw_field` at a single interior point."""
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if v.shape[0] != cfg.d:
        raise ValueError(f"expected a {cfg.d}-vector")
    a, A = cfg.alpha, cfg.A
    v_alpha = v**a
    S = A @ v_alpha
    H = float(v_alpha @ S)
    if H <= 0:
        raise SingularDenominatorError("H(v) must be positive")
    # d/dv_k of v_i^a S_i / H; note dH/dv_k = 2a v_k^(a-1) S_k by symmetry of A
    v_am1 = v ** (a - 1.0)
    term1 = np.diag(a * v_am1 * S) / H
    term2 = a * (v_alpha[:, None] * A * v_am1[None, :]) / H
    term3 = np.outer(v_alpha * S, 2.0 * a * v_am1 * S) / H**2
    return -np.eye(cfg.d) + term1 + term2 - term3


def _vrrw_trap(cfg: VrrwConfig) -> TrapInfo:
    """The uniform occupation point, its analytic Jacobian, and the exact trap
    constants: radial contraction rate -1 (the drift is -v plus a
    degree-0-homogeneous term, so Df(v*) v* = -v*) and tangency exponent
    alpha - 1 (only meaningful above linear reinforcement)."""
    u = cfg.uniform
    jac = vrrw_jacobian(u, cfg)
    nu = cfg.alpha - 1.0 if cfg.alpha > 1.0 else None
    return TrapInfo(x_star=u, jacobian=jac, mu=-1.0, nu=nu)


class _VrrwModel(Model):
    """What the two VRRW models share: the walk parameters ``cfg``, the
    declared trap at the uniform point, the mean-field drift, the initial
    occupation measure and the natural schedule."""

    def __init__(self, cfg: VrrwConfig, id: str):
        self.cfg = cfg
        self.dim = cfg.d
        self.n_raw = 1
        self.id = id
        self.trap = _vrrw_trap(cfg)
        self._vertices = np.arange(cfg.d)[:, None]

    def field(self, x):
        return vrrw_field(x, self.cfg, validate=False)

    def initial_state(self):
        c = np.asarray(self.cfg.initial_counts, dtype=np.float64)
        return c / c.sum()

    def natural_schedule(self, horizon: int):
        """``gamma_n = c_n = 1/(n + total initial count)``."""
        from .sequences import Schedule, SequenceSpec

        spec = SequenceSpec("power", exponent=1.0, offset=float(self.cfg.total0))
        return Schedule(gamma=spec, c=spec, horizon=horizon)


class VrrwWalkModel(_VrrwModel):
    """The reinforced walk itself, recorded as an SA recursion on the
    occupation measure.

    One step moves the walker to vertex J with probability proportional to
    ``A[cur, J] * counts_J^alpha``, increments that count, and decomposes the
    occupation increment ``(e_J - v) / (T+1)`` into drift ``f(v)``, martingale
    part ``e_J - p`` (mean zero given the walker position), and remainder
    ``p - v - f(v)``.  The remainder carries the gap between the
    position-conditional law ``p`` and the mean-field law, which is O(1)
    pointwise and only averages out along the trajectory; checkers that
    require a vanishing remainder should use :class:`MeanFieldVrrwModel`.

    Use :meth:`natural_schedule`: the occupation identity requires
    ``gamma_n = c_n = 1/(n + total initial count)`` exactly.
    """

    def __init__(self, cfg: VrrwConfig, start_vertex: int = 0, id: Optional[str] = None):
        if not (0 <= start_vertex < cfg.d):
            raise ValueError("start_vertex out of range")
        super().__init__(cfg, id or f"vrrw_walk_d{cfg.d}_a{cfg.alpha:g}")
        self.start_vertex = int(start_vertex)
        self._A_T = np.ascontiguousarray(cfg.A.T)

    def init_aux(self, n_runs: int):
        counts = np.tile(
            np.asarray(self.cfg.initial_counts, dtype=np.float64), (n_runs, 1)
        )
        cur = np.full(n_runs, self.start_vertex, dtype=np.int64)
        return {"counts": counts, "cur": cur}

    def step_parts(self, x, n, raw, aux):
        # column form, (d, B): see _vrrw_pieces
        counts, cur = aux["counts"], aux["cur"]
        rows = np.arange(x.shape[0])
        w = self._A_T.take(cur, axis=1) * counts.T**self.cfg.alpha  # A[cur_b, j] c_bj^a
        w[cur, rows] = 0.0
        tot = _row_sum(w)
        if (tot <= 0).any():
            raise StuckWalkError("no admissible transition for some run")
        # select against the cumsum's own total: u*c[-1] < c[-1] for u < 1, so
        # the pick is a positive-weight vertex even where tot > c[-1]
        c = _cumsum_cols(w)
        nxt = (raw[:, 0] * c[-1] >= c).sum(axis=0)
        p = w / tot

        P, H = _vrrw_pieces(x.T, self.cfg)
        # the pieces go back to row-major (B, d) in their last operation
        g = (P / H).T - x
        eps = np.empty(x.shape)
        np.subtract(self._vertices == nxt, p, out=eps.T)  # the one-hot e_J is boolean
        rem = (p.T - x) - g

        counts[rows, nxt] += 1.0
        aux["cur"] = nxt
        return g, eps, rem, aux


class MeanFieldVrrwModel(_VrrwModel):
    """Occupation-measure recursion with the walker position resampled each
    step from the stationary law of the position-given-occupation chain,
    ``pi_i(v) = v_i^alpha (A v^alpha)_i / H(v)``.

    Resampling from ``pi`` makes the conditional mean of the jump direction
    exactly ``pi = v + f(v)``, so the decomposition has drift ``f(v)``, noise
    ``e_J - pi(v)``, and remainder identically zero — the cleanest member of
    the model family for hypothesis checks.
    """

    def __init__(self, cfg: VrrwConfig, id: Optional[str] = None):
        super().__init__(cfg, id or f"vrrw_meanfield_d{cfg.d}_a{cfg.alpha:g}")

    def step_parts(self, x, n, raw, aux):
        # column form, (d, B): see _vrrw_pieces
        P, H = _vrrw_pieces(x.T, self.cfg)
        if (H <= 0).any():
            raise SingularDenominatorError("H(v) vanished along some run")
        pi = P / H
        # J = #{i : u >= pi_0 + ... + pi_i}, clamped where rounding leaves
        # the last running sum below u
        J = np.minimum((raw[:, 0] >= _cumsum_cols(pi)).sum(axis=0), self.dim - 1)
        # the pieces go back to row-major (B, d) in their last operation
        eps = np.empty(x.shape)
        np.subtract(self._vertices == J, pi, out=eps.T)  # the one-hot e_J is boolean
        return pi.T - x, eps, np.zeros(x.shape), aux


# ---------------------------------------------------------------------------
# hypothesis-violating controls
# ---------------------------------------------------------------------------


def control_models() -> dict:
    """The three sharpness controls, keyed by what they break.

    * ``degenerate_noise``   — eps ≡ 0 on the 1-D repulsive model: started at
      the equilibrium, the run never leaves it (noise excitation fails).
    * ``stable_only_noise``  — f(x) = (x1, -x2) with noise only on the second
      coordinate: the repulsive coordinate is never excited and stays 0 from
      the stable axis.
    * ``bad_remainder``      — r_n = 1/sqrt(n) is not square-summable; the
      remainder check must fail.
    """
    return {
        "degenerate_noise": LinearModel(
            [[1.0]], noise_kind="none", id="control_degenerate_noise"
        ),
        "stable_only_noise": LinearModel(
            np.diag([1.0, -1.0]),
            noise_kind="stable_only",
            unstable_dims=1,
            id="control_stable_only_noise",
        ),
        "bad_remainder": LinearModel(
            [[1.0]],
            noise_kind="rademacher",
            remainder_kind="inv_sqrt",
            id="control_bad_remainder",
        ),
    }
