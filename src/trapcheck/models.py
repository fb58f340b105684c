"""Built-in process definitions.

A model implements ``field(x)``, the drift field, and
``step_parts(x, n, raw, aux) -> (g, eps, rem, aux)``, the three pieces of one
recursion step at state ``x`` and step index ``n`` (0-based):

* ``g``   — drift term (multiplied by ``gamma_{n+1}`` by the engine),
* ``eps`` — martingale noise with conditional mean zero (multiplied by ``c_{n+1}``),
* ``rem`` — remainder (also multiplied by ``c_{n+1}``).

``aux`` is per-batch walk state (see ``init_aux``), returned for the next step.

Models are vectorized across a batch of independent runs: states have shape
``(B, d)`` and randomness enters only through pre-drawn uniform doubles
(``raw``, shape ``(B, n_raw)``), one block per run per step, or ``u >= 0.5``
of each for a model whose ``raw_dtype`` is bool.  Every operation is
row-wise and elementwise (matrix products are accumulated column by column
in a fixed order), so a run's floating-point path is bit-identical whether it
executes alone or inside any batch — the engine's determinism contract rests
on this.

``step_parts`` runs once per step on arrays of about a thousand doubles, where
a numpy call's dispatch costs about as much as its arithmetic.  So the steps
call numpy's C entry points (``np.zeros(shape)``, ufuncs, array methods), not
its Python-level wrappers (``np.zeros_like``, ``np.full_like``, ``np.where``
with Python scalars): each wrapper costs a Python frame per step.

The VRRW steps and field work on states as columns, shape ``(d, B)``, one
row per vertex, so each piece is one operation over all runs.  The columns
are a C-contiguous copy (``x.T.copy()``), never the F-ordered view ``x.T``:
a ufunc over operands of mixed layout costs two to three times one over
operands of one layout.

A sum over coordinates is a left fold from +0.0, one whole column per
operation (:func:`_fold_cols`, :func:`_sq_norms`), so its bits depend on
neither the batch nor the layout.  Below 8 coordinates this is bitwise what
``np.sum(axis=-1)`` and ``np.linalg.norm(axis=-1)`` give; from 8 on numpy
sums pairwise, and the last bits differ.

Models must stay picklable (process-pool workers receive them by value), so
behavioral knobs are plain strings/arrays rather than closures.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import SingularDenominatorError, StuckWalkError

__all__ = [
    "ManifoldK",
    "TrapInfo",
    "Model",
    "LinearModel",
    "SyntheticModel",
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
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros(x.shape[:-1] + M.shape[:1])
    for j, col in enumerate(M.T):
        out += x[..., j, None] * col
    return out


#: The sign of a draw ``u``, indexed by ``u >= 0.5``.
_SIGNS = np.array([-1.0, 1.0])


def _rademacher(raw: np.ndarray) -> np.ndarray:
    """Map draws ``u >= 0.5`` to ±1: -1 for False, +1 for True, bit for bit
    ``copysign(1.0, u - 0.5)`` of the uniform double ``u`` itself.  A gather,
    not ``np.where``, whose branch per element mispredicts on random signs:
    3x the cost at 1000 runs of d = 2."""
    return _SIGNS.take(raw.view(np.uint8))


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
        return np.sqrt(_sq_norms(u - proj))


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
    """Base class; subclasses implement ``field`` and ``step_parts``.

    Attributes
    ----------
    id : str
    dim : int
    n_raw : int
        Uniform doubles consumed per run per step.
    raw_dtype : numpy dtype
        What ``step_parts`` gets of each draw: the double itself, or for a
        model that reads only its sign, bool ``u >= 0.5`` (one byte per draw
        in the engine's buffer, not eight).
    trap : TrapInfo or None
    manifold_K : ManifoldK or None
    """

    id: str = "model"
    dim: int = 1
    n_raw: int = 0
    raw_dtype = np.float64
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

    def init_aux(self, n_runs: int):
        """Per-batch mutable walk state; None for state-free models."""
        return None

    def step_parts(self, x: np.ndarray, n: int, raw: np.ndarray, aux):
        """(g, eps, rem, aux) for a batch of states x (B, d) at step n.

        ``raw`` (B, n_raw) of ``raw_dtype`` (doubles, or bools for a
        sign-only model) is a view into the engine's draw buffer, which is
        refilled every block: read it during this call and keep no
        reference to it, in ``aux`` or elsewhere."""
        raise NotImplementedError


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

    raw_dtype = np.bool_

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

    def step_parts(self, x, n, raw, aux):
        if self.noise_kind == "none":
            eps = np.zeros(x.shape)
        else:
            eps = _rademacher(raw)
            if self.noise_kind == "stable_only":
                eps[..., : self.unstable_dims] = 0.0
        if self.remainder_kind == "inv_sqrt":
            rem = np.full(x.shape, 1.0 / np.sqrt(n + 1.0))
        else:
            rem = np.zeros(x.shape)
        return self.field(x), eps, rem, aux


# ---------------------------------------------------------------------------
# the synthetic saddle
# ---------------------------------------------------------------------------


class SyntheticModel(Model):
    """SA model around the synthetic field ``f(x) = (x_head, mu * x_tail)``,
    the head being the first ``delta_plus`` coordinates, with Rademacher
    noise.

    The equilibrium at 0 has Jacobian ``blockdiag(I, mu*I)``, the invariant
    set is the head-coordinate plane, and the declared constants are exactly
    (mu, nu); the field does not read ``nu``.
    """

    id = "synthetic"
    raw_dtype = np.bool_

    def __init__(self, mu: float = -1.0, nu: float = 1.0, dim: int = 2, delta_plus: int = 1):
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
        self.n_raw = self.dim
        jac = np.zeros((dim, dim))
        jac[:delta_plus, :delta_plus] = np.eye(delta_plus)
        jac[delta_plus:, delta_plus:] = mu * np.eye(dim - delta_plus)
        self.trap = TrapInfo(
            x_star=np.zeros(dim), jacobian=jac, mu=self.mu, nu=self.nu
        )
        self.manifold_K = ManifoldK(
            basepoint=np.zeros(dim), directions=np.eye(dim)[:, :delta_plus]
        )

    def field(self, x):
        x = np.asarray(x, dtype=np.float64)
        k = self.delta_plus
        out = np.empty(x.shape)
        out[..., :k] = x[..., :k]
        np.multiply(self.mu, x[..., k:], out=out[..., k:])
        return out

    def step_parts(self, x, n, raw, aux):
        return self.field(x), _rademacher(raw), np.zeros(x.shape), aux


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
        if not all(float(c).is_integer() for c in counts):
            raise ValueError(f"initial counts must be integers, got {tuple(counts)}")
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
        return VrrwConfig(d, alpha, np.ones((d, d)) - np.eye(d), initial_counts)

    @property
    def total0(self) -> int:
        return int(sum(self.initial_counts))

    @cached_property
    def _A_stack(self) -> np.ndarray:
        """``A`` by columns as a C-contiguous (d, d, 1) stack,
        ``[j, i, 0] = A_ij``: the factor :func:`_vrrw_pieces` broadcasts
        against ``v_alpha`` every step, built once."""
        return np.ascontiguousarray(self.A.T)[:, :, None]

    @property
    def uniform(self) -> np.ndarray:
        return np.full(self.d, 1.0 / self.d)


def _fold_cols(cols: np.ndarray) -> np.ndarray:
    """Sum over the leading axis of ``cols`` (shape (n, B)) as a left fold
    from +0.0, one whole column per operation, so a run's sum does not
    depend on the batch it is in or the layout the batch is kept in."""
    out = cols[0] + 0.0
    for j in range(1, len(cols)):
        out += cols[j]
    return out


def _sq_norms(y: np.ndarray) -> np.ndarray:
    """Squared Euclidean norms over the last axis of ``y`` (shape (..., d)):
    ``square(y[..., 0]) + square(y[..., 1]) + ...``, one whole coordinate per
    operation, in the layout of ``y``'s other axes.  Below 8 coordinates
    this is bitwise ``np.sum(y**2, axis=-1)``, and its root bitwise
    ``np.linalg.norm(y, axis=-1)``, at a fraction of their cost: numpy
    reduces a short last axis with one inner loop per element."""
    if not y.shape[-1]:
        return np.zeros(y.shape[:-1])
    out = np.square(y[..., 0])
    for j in range(1, y.shape[-1]):
        out += np.square(y[..., j])
    return out


def _draw_index(u: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Per run, ``#{i < n-1 : u >= cols_0 + ... + cols_i}`` for draws ``u``
    (shape (B,)) and nonnegative weights ``cols`` (shape (n, B)): the index
    whose running-sum interval holds ``u``.  The running sums are bitwise
    ``np.cumsum`` along the leading axis, built in place.  They never
    decrease, so the last one, which rounding may leave below ``u``, is not
    compared: index n-1 takes everything above the one before it."""
    run = cols[0].copy()
    J = np.zeros(len(u), dtype=np.intp)
    J += u >= run
    for j in range(1, len(cols) - 1):
        run += cols[j]
        J += u >= run
    return J


def _vrrw_pieces(vt: np.ndarray, cfg: VrrwConfig):
    """(P, H) at states given as C-contiguous columns ``vt`` (shape (d, B),
    one column per run): ``P_i = v_i^alpha S_i`` with
    ``S_i = sum_j A_ij v_j^alpha``, and ``H = sum_i P_i``, so ``pi = P / H``
    is the walker's stationary law.  Raises
    :class:`SingularDenominatorError` where ``H <= 0`` (not where H is NaN).

    S's terms come from one ``(d, d, B)`` product, whose j-th block is
    contiguous; S folds them in order j = 0..d-1 from +0.0 and H folds
    i = 0..d-1 (:func:`_fold_cols`), so each run's bits do not depend on the
    batch.
    """
    v_alpha = vt**cfg.alpha
    S = _fold_cols(cfg._A_stack * v_alpha[:, None])  # [j, i, b] = A_ij v_jb^alpha
    P = v_alpha * S
    H = _fold_cols(P)
    # one call, with (H <= 0).any()'s answer: NaN is skipped, an empty batch is inf
    if np.fmin.reduce(H, initial=np.inf) <= 0.0:
        raise SingularDenominatorError("H(v) vanished along some run")
    return P, H


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
    P, H = _vrrw_pieces(vb.T.copy(), cfg)
    if not np.isfinite(H).all():
        raise SingularDenominatorError("H(v) is not finite at some point")
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

    #: the model id before the vertex count and the exponent
    _id_prefix: str

    def __init__(self, cfg: VrrwConfig):
        self.cfg = cfg
        self.dim = cfg.d
        self.n_raw = 1
        self.id = f"{self._id_prefix}_d{cfg.d}_a{cfg.alpha:g}"
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

    _id_prefix = "vrrw_walk"

    def __init__(self, cfg: VrrwConfig, start_vertex: int = 0):
        if not (0 <= start_vertex < cfg.d):
            raise ValueError("start_vertex out of range")
        super().__init__(cfg)
        self.start_vertex = int(start_vertex)
        self._A_T = cfg._A_stack[:, :, 0]  # A by columns, C-contiguous (d, d)

    def init_aux(self, n_runs: int):
        counts = np.tile(
            np.asarray(self.cfg.initial_counts, dtype=np.float64), (n_runs, 1)
        )
        cur = np.full(n_runs, self.start_vertex, dtype=np.int64)
        return {"counts": counts, "cur": cur}

    def step_parts(self, x, n, raw, aux):
        # column form, (d, B): see the module docstring
        counts, cur = aux["counts"], aux["cur"]
        rows = np.arange(x.shape[0])
        w = self._A_T.take(cur, axis=1) * counts.T**self.cfg.alpha  # A[cur_b, j] c_bj^a
        w[cur, rows] = 0.0
        tot = _fold_cols(w)  # w_0 >= +0.0: the running sums' last, bit for bit
        if np.fmin.reduce(tot, initial=np.inf) <= 0.0:
            raise StuckWalkError("no admissible transition for some run")
        nxt = _draw_index(raw[:, 0] * tot, w)
        p = w / tot

        P, H = _vrrw_pieces(x.T.copy(), self.cfg)
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

    _id_prefix = "vrrw_meanfield"

    def step_parts(self, x, n, raw, aux):
        # column form, (d, B): see the module docstring
        P, H = _vrrw_pieces(x.T.copy(), self.cfg)
        pi = P / H
        J = _draw_index(raw[:, 0], pi)
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
