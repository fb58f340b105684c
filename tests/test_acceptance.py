"""End-to-end acceptance suite: one test per numbered criterion.

Each test enforces its stated tolerance and prints a single
``criterion NN: PASS/FAIL`` line with the measured values (visible with
``pytest -s`` and in failure reports).  Budget-heavy ensembles share a
module fixture and a fixed worker count so the whole file stays within a
few minutes on a laptop-class machine.
"""

import json
import time

import numpy as np
import pytest
from conftest import random_repulsive, random_split_matrix

from trapcheck import spectral
from trapcheck.cli import ExperimentConfig, canonical_json, run_experiment
from trapcheck.engine import CaptureSpec, monte_carlo, run
from trapcheck.flow import (
    apt_deficit,
    ensemble_apt_deficit,
    ensemble_manifold_rate,
    flow_path,
    manifold_rate,
)
from trapcheck.hypotheses import check_remainder
from trapcheck.models import (
    LinearModel,
    ManifoldK,
    SyntheticModel,
    VrrwConfig,
    control_models,
    vrrw_field,
)
from trapcheck.sequences import Schedule, SequenceSpec

MASTER_SEED = 20260815
WORKERS = 4


def harmonic(horizon):
    return Schedule(
        gamma=SequenceSpec("power", exponent=1.0),
        c=SequenceSpec("power", exponent=1.0),
        horizon=horizon,
    )


def geometric_grid(N, n_points):
    return tuple(np.unique(np.geomspace(1, N, n_points).astype(np.int64)))


def report_line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d}: {status} - {detail}")


@pytest.fixture(scope="module")
def linear_ensemble():
    """1000 runs of the 1-D repulsive model with harmonic steps, N=1e5,
    states captured on a geometric grid (shared by criteria 1 and 7)."""
    N = 100_000
    sched = harmonic(N)
    summary = monte_carlo(
        LinearModel([[1.0]]),
        sched,
        [0.0],
        N,
        1000,
        MASTER_SEED,
        workers=WORKERS,
        captures=CaptureSpec(state_indices=geometric_grid(N, 1024)),
    )
    return summary, sched


def test_criterion_01_repulsive_nonconvergence(linear_ensemble):
    """1-D repulsive model from the equilibrium: at most 0.5% of runs stay
    within 1e-2 of it over the final quarter of the horizon."""
    summary, _ = linear_ensemble
    t0 = time.time()
    assert summary.blowup_count == 0
    frac = summary.near_trap_fraction(1e-2)
    ok = frac <= 0.005
    report_line(
        1, ok, f"lingering fraction {frac:.4f} <= 0.005 [{time.time() - t0:.1f}s]"
    )
    assert ok


def test_criterion_02_sharpness_controls():
    """The three hypothesis-violating controls behave as designed."""
    t0 = time.time()
    controls = control_models()
    N = 2000

    # (a) zero noise started at the equilibrium: never leaves it
    s_a = monte_carlo(
        controls["degenerate_noise"], harmonic(N), [0.0], N, 100, MASTER_SEED
    )
    frac_a = s_a.near_trap_fraction(1e-9)
    assert np.all(s_a.terminal_states == 0.0)

    # (b) noise only on the contracting coordinate, started on its axis:
    # the repulsive coordinate stays exactly zero in every run
    grid = tuple(range(1, N + 1, 50))
    s_b = monte_carlo(
        controls["stable_only_noise"],
        harmonic(N),
        [0.0, 0.5],
        N,
        100,
        MASTER_SEED,
        captures=CaptureSpec(state_indices=grid),
    )
    zero_b = np.all(s_b.terminal_states[:, 0] == 0.0) and np.all(
        s_b.captured_states[:, :, 0] == 0.0
    )

    # (c) a 1/sqrt(n) remainder is not square-summable: the check fails
    traj = run(controls["bad_remainder"], harmonic(20_000), [0.1], 20_000, 3)
    res_c = check_remainder(traj)

    ok = frac_a == 1.0 and zero_b and res_c.verdict == "fail"
    report_line(
        2,
        ok,
        f"zero-noise fraction {frac_a:.1f}==1, repulsive coord zero {zero_b}, "
        f"remainder verdict {res_c.verdict!r} [{time.time() - t0:.1f}s]",
    )
    assert frac_a == 1.0
    assert zero_b
    assert res_c.verdict == "fail"


def test_criterion_03_vrrw_pipeline(tmp_path):
    """Occupation-measure reinforcement (3 vertices, exponent 2) through the
    full pipeline: the uniform point is left behind, and the reported
    constants and step-rate check match the closed forms."""
    t0 = time.time()
    step = {"kind": "power", "exponent": 1.0, "offset": 1.0}
    cfg = ExperimentConfig.from_dict(
        {
            "model": {"kind": "vrrw_meanfield", "d": 3, "alpha": 2.0},
            # offset-1 harmonic steps: gamma_1 < 1 keeps the resampled
            # occupation recursion strictly inside the simplex
            "schedule": {"gamma": step, "c": step},
            "N": 100_000,
            "n_runs": 500,
            "master_seed": MASTER_SEED,
            "near_trap_radius": 0.05,
            "checks": [{"name": "rate_condition"}],
        }
    )
    code, doc = run_experiment(cfg, workers=WORKERS, out_dir=tmp_path)

    term = np.asarray(doc["ensemble"]["terminal_states"], dtype=float)
    frac = float(np.mean(np.linalg.norm(term - 1.0 / 3.0, axis=1) < 0.05))
    lam = doc["rates"]["lambda_hat"]
    consts = doc["report"]["constants"]
    rc = next(c for c in doc["report"]["conditions"] if c["name"] == "rate_condition")
    margin = rc["estimates"]["margin"]

    ok = (
        code == 0
        and frac <= 0.01
        and abs(lam + 0.5) <= 0.02
        and consts["mu"] == -1.0
        and abs(consts["beta"] + 0.5) <= 0.02
        and consts["nu"] == 1.0
        and rc["verdict"] == "pass"
        and margin >= 0.45
    )
    report_line(
        3,
        ok,
        f"exit {code}, near-uniform fraction {frac:.3f} <= 0.01, "
        f"lambda_hat {lam:.4f}, mu {consts['mu']}, beta {consts['beta']:.4f}, "
        f"nu {consts['nu']}, margin {margin:.3f} [{time.time() - t0:.1f}s]",
    )
    assert code == 0
    assert frac <= 0.01
    assert abs(lam + 0.5) <= 0.02
    assert consts["mu"] == -1.0
    assert abs(consts["beta"] + 0.5) <= 0.02
    assert consts["nu"] == 1.0
    assert rc["verdict"] == "pass"
    assert margin >= 0.45


def test_criterion_04_adapted_inner_product():
    """On 1000 random matrices with fully right-half-plane spectra the
    adapted form is coercive on every sampled vector and the defining
    equation residual stays at solver precision."""
    t0 = time.time()
    rng = np.random.default_rng(MASTER_SEED)
    worst = np.inf
    max_resid = 0.0
    for i in range(1000):
        d = 2 + i % 5
        H = random_repulsive(rng, d)
        norm_obj = spectral.adapted_inner_product(H)
        S, lam = norm_obj.S, norm_obj.lam
        resid = np.linalg.norm(H.T @ S + S @ H - 2.0 * np.eye(d))
        max_resid = max(max_resid, resid)
        X = rng.standard_normal((100, d))
        q_drift = np.einsum("bi,ij,bj->b", X, S @ H, X)
        q_norm = np.einsum("bi,ij,bj->b", X, S, X)
        worst = min(worst, float(np.min(q_drift - lam * q_norm)))
    ok = worst >= -1e-9 and max_resid <= 1e-8
    report_line(
        4,
        ok,
        f"worst coercivity slack {worst:.2e} >= -1e-9, "
        f"max residual {max_resid:.2e} <= 1e-8 [{time.time() - t0:.1f}s]",
    )
    assert worst >= -1e-9
    assert max_resid <= 1e-8


def test_criterion_05_spectral_splitting():
    """1000 random matrices with spectra at least 1e-2 off the imaginary
    axis: the block split reconstructs the matrix, preserves the spectrum
    as a multiset, and reports the exact contraction rate for d <= 4."""
    t0 = time.time()
    rng = np.random.default_rng(MASTER_SEED + 1)
    max_rec = 0.0
    max_eig_err = 0.0
    max_mu_err = 0.0
    for i in range(1000):
        d = 2 + i % 5
        H = random_split_matrix(rng, d)
        sp = spectral.split_jacobian(H)

        rec = np.linalg.norm(sp.P @ sp.block_diagonal() @ sp.P_inv - H)
        max_rec = max(max_rec, rec / (1.0 + np.linalg.norm(H)))

        block_eigs = []
        if sp.delta_plus:
            block_eigs.append(np.linalg.eigvals(sp.H_plus))
        if sp.delta_minus:
            block_eigs.append(np.linalg.eigvals(sp.H_minus))
        block_eigs = np.concatenate(block_eigs)
        remaining = list(block_eigs)
        for lam in np.linalg.eigvals(H):
            j = int(np.argmin(np.abs(np.asarray(remaining) - lam)))
            max_eig_err = max(max_eig_err, abs(remaining.pop(j) - lam))

        if d <= 4:
            re = np.linalg.eigvals(H).real
            neg = re[re < 0]
            assert len(neg) == sp.delta_minus
            if sp.delta_minus:
                max_mu_err = max(max_mu_err, abs(sp.mu - float(np.max(neg))))
            else:
                assert sp.mu == 0.0
    ok = max_rec <= 1e-8 and max_eig_err <= 1e-8 and max_mu_err <= 1e-8
    report_line(
        5,
        ok,
        f"max relative reconstruction {max_rec:.2e}, max eigenvalue drift "
        f"{max_eig_err:.2e}, max mu error {max_mu_err:.2e} (all <= 1e-8) "
        f"[{time.time() - t0:.1f}s]",
    )
    assert max_rec <= 1e-8
    assert max_eig_err <= 1e-8
    assert max_mu_err <= 1e-8


def test_criterion_06_tail_l2_asymptotics():
    """For c_n = n^(-3/4) the tail-l2 scale matches sqrt(2)*t^(-1/4) within
    2% over t in [1e3, 1e4]."""
    t0 = time.time()
    sched = Schedule(
        gamma=SequenceSpec("power", exponent=1.0),
        c=SequenceSpec("power", exponent=0.75),
        horizon=10,
    )
    t = np.arange(1_000, 10_001, dtype=np.float64)
    alpha = sched.tail_l2(t)
    ref = np.sqrt(2.0) * t**-0.25
    dev = float(np.max(np.abs(alpha / ref - 1.0)))
    ok = dev <= 0.02
    report_line(6, ok, f"max relative deviation {dev:.2e} <= 0.02 [{time.time() - t0:.1f}s]")
    assert dev <= 0.02


def test_criterion_07_shadowing_deficit(linear_ensemble):
    """The time-changed ensemble paths shadow the flow at the noise rate
    (median tail rate <= -0.4) and a noiseless path shadows it exactly."""
    summary, _ = linear_ensemble
    t0 = time.time()
    rates = ensemble_apt_deficit(summary, LinearModel([[1.0]]).field, T=1.0)
    median = rates.median

    s_grid = np.linspace(0.0, 6.0, 121)
    path = flow_path(lambda x: x, np.array([0.5]), s_grid, h=1e-3)
    res = apt_deficit(path, lambda x: x, T=1.0, normalization="absolute")
    max_deficit = float(np.max(res.deficits))

    ok = median <= -0.4 and rates.n_excluded == 0 and max_deficit <= 1e-6
    report_line(
        7,
        ok,
        f"ensemble median rate {median:.3f} <= -0.4, noiseless deficit "
        f"{max_deficit:.2e} <= 1e-6 [{time.time() - t0:.1f}s]",
    )
    assert median <= -0.4
    assert rates.n_excluded == 0
    assert max_deficit <= 1e-6


def test_criterion_08_manifold_attraction():
    """Distance to the repulsive axis decays at the contraction rate for the
    pure flow (slope -1 exactly) and at the noise-limited rate for the
    synthetic-saddle ensemble (median in [-1.1, -0.4])."""
    t0 = time.time()

    # (i) deterministic saddle flow from the contracting axis
    K = ManifoldK(basepoint=np.zeros(2), directions=np.eye(2)[:, :1])
    s_grid = np.linspace(0.0, 6.0, 121)
    path = flow_path(
        lambda x: x * np.array([1.0, -1.0]), np.array([0.0, 0.5]), s_grid, h=1e-3
    )
    slope = manifold_rate(path, K=K).rates[0]

    # (ii) stochastic ensemble around the same split (mu=-1, nu=1)
    model = SyntheticModel(mu=-1.0, nu=1.0, dim=2, delta_plus=1)
    N = 100_000
    sched = harmonic(N)
    summary = monte_carlo(
        model,
        sched,
        np.array([0.0, 0.3]),
        N,
        512,
        7,
        workers=WORKERS,
        captures=CaptureSpec(state_indices=geometric_grid(N, 1024)),
    )
    median = ensemble_manifold_rate(summary, K=model.manifold_K).median

    ok = abs(slope + 1.0) <= 1e-3 and -1.1 <= median <= -0.4
    report_line(
        8,
        ok,
        f"flow slope {slope:.5f} = -1 +/- 1e-3, ensemble median {median:.3f} "
        f"in [-1.1, -0.4] [{time.time() - t0:.1f}s]",
    )
    assert abs(slope + 1.0) <= 1e-3
    assert -1.1 <= median <= -0.4


def test_criterion_09_worker_count_determinism(tmp_path):
    """The criterion-1 experiment writes byte-identical summaries for 1 and
    16 workers (only the meta block may differ)."""
    t0 = time.time()
    cfg = ExperimentConfig.from_dict(
        {
            "model": {"kind": "linear", "H": [[1.0]]},
            "schedule": {"kind": "harmonic"},
            "N": 100_000,
            "n_runs": 1000,
            "master_seed": MASTER_SEED,
            "x0": [0.0],
            "checks": [],
        }
    )
    code_a, _ = run_experiment(cfg, workers=1, out_dir=tmp_path / "a")
    code_b, _ = run_experiment(cfg, workers=16, out_dir=tmp_path / "b")

    doc_a = json.loads((tmp_path / "a" / "summary.json").read_text())
    doc_b = json.loads((tmp_path / "b" / "summary.json").read_text())
    meta_a = doc_a.pop("meta")
    meta_b = doc_b.pop("meta")
    identical = canonical_json(doc_a) == canonical_json(doc_b)

    ok = identical and code_a == 0 and code_b == 0
    report_line(
        9,
        ok,
        f"1 vs 16 workers byte-identical modulo meta: {identical} "
        f"[{time.time() - t0:.1f}s]",
    )
    assert code_a == 0 and code_b == 0
    assert meta_a["workers"] == 1 and meta_b["workers"] == 16
    assert identical


def test_criterion_10_occupation_field_identities():
    """The occupation-measure drift sums to zero on the simplex and vanishes
    at the uniform point, across sizes 2..6 and exponents {1, 1.5, 2, 3}."""
    t0 = time.time()
    rng = np.random.default_rng(MASTER_SEED + 2)
    worst_sum = 0.0
    worst_uniform = 0.0
    for d in range(2, 7):
        for alpha in (1.0, 1.5, 2.0, 3.0):
            cfg = VrrwConfig.complete(d, alpha)
            V = rng.dirichlet(np.ones(d), size=10_000)
            F = vrrw_field(V, cfg)
            worst_sum = max(worst_sum, float(np.abs(F.sum(axis=1)).max()))
            worst_uniform = max(
                worst_uniform, float(np.abs(vrrw_field(cfg.uniform, cfg)).max())
            )
    ok = worst_sum <= 1e-12 and worst_uniform <= 1e-12
    report_line(
        10,
        ok,
        f"max |sum f| {worst_sum:.2e}, max |f(uniform)| {worst_uniform:.2e} "
        f"(both <= 1e-12) [{time.time() - t0:.1f}s]",
    )
    assert worst_sum <= 1e-12
    assert worst_uniform <= 1e-12
