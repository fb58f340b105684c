"""The benchmark's workloads: a trapcheck command line, a config built from
the seed, and the seed-independent facts every output must satisfy.

Each workload is one of the acceptance configurations cut from N = 1e5 to
N = 2e4, so that one invocation takes a few seconds.  The smoke size divides
N by 10 and the run count by 4 (the checkers need at least 30 runs); the
invariants hold at both sizes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

#: Seed whose output digests are pinned in ``expected.json``.
DEFAULT_SEED = 20260815

FULL_N = 20_000

#: (divisor of N, divisor of the run count) per size
SIZES = {"full": (1, 1), "smoke": (10, 4)}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # trapcheck subcommand
    n_runs: int  # at full size
    workers: int
    make_config: Callable[[int, int, int], dict]  # (seed, N, n_runs) -> config
    invariants: Callable[[dict], list]  # summary minus meta -> violations

    def config(self, seed: int, size: str = "full") -> dict:
        n_div, runs_div = SIZES[size]
        return self.make_config(seed, FULL_N // n_div, self.n_runs // runs_div)

    def run_steps(self, size: str = "full") -> int:
        """Ensemble run-steps of one invocation, the unit of throughput."""
        cfg = self.config(DEFAULT_SEED, size)
        return cfg["N"] * cfg["n_runs"]


def _no_blowups(doc: dict) -> list:
    n = doc["ensemble"]["blowup_count"]
    return [] if n == 0 else [f"{n} runs blew up"]


def _finite_negative(x) -> bool:
    return isinstance(x, float) and math.isfinite(x) and x < 0


# -- linear_simulate ------------------------------------------------------------


def _linear_config(seed: int, N: int, n_runs: int) -> dict:
    return {
        "model": {"kind": "linear", "H": [[1.0]]},
        "schedule": {"kind": "harmonic"},
        "N": N,
        "n_runs": n_runs,
        "master_seed": seed,
        "x0": [0.0],
    }


def _linear_invariants(doc: dict) -> list:
    bad = _no_blowups(doc)
    frac = doc["ensemble"]["near_trap_fraction"]
    if not frac <= 0.005:
        bad.append(f"near-trap fraction {frac} > 0.005")
    return bad


# -- vrrw_check -----------------------------------------------------------------


def _vrrw_config(seed: int, N: int, n_runs: int) -> dict:
    step = {"kind": "power", "exponent": 1.0, "offset": 1.0}
    return {
        "model": {"kind": "vrrw_meanfield", "d": 3, "alpha": 2.0},
        "schedule": {"gamma": step, "c": dict(step)},
        "N": N,
        "n_runs": n_runs,
        "master_seed": seed,
        "near_trap_radius": 0.05,
        "checks": [
            {"name": "rate_condition"},
            {"name": "noise_excitation", "k": 1, "a": 4.0},
            {"name": "remainder"},
            {"name": "jump_moments", "a": 4.0},
            {"name": "tail_noise", "window": [N // 20, N]},
        ],
        "diagnostics": [{"name": "apt", "T": 1.0}],
        "output": {"trajectories": 1, "write_diagnostics": True},
    }


def _vrrw_invariants(doc: dict) -> list:
    bad = _no_blowups(doc)
    for cond in doc["report"]["conditions"]:
        if cond["verdict"] != "pass":
            bad.append(f"{cond['name']} verdict {cond['verdict']}")
    lam = doc["rates"]["lambda_hat"]
    if not abs(lam + 0.5) <= 0.02:
        bad.append(f"lambda_hat {lam} not within 0.02 of -0.5")
    return bad


# -- saddle_check ---------------------------------------------------------------


def _saddle_config(seed: int, N: int, n_runs: int) -> dict:
    return {
        "model": {"kind": "synthetic", "mu": -1.0, "nu": 1.0, "dim": 2, "delta_plus": 1},
        "schedule": {"kind": "harmonic"},
        "N": N,
        "n_runs": n_runs,
        "master_seed": seed,
        "x0": [0.0, 0.3],
        "checks": [
            {"name": "rate_condition"},
            {"name": "noise_excitation", "k": 2, "a": 4.0},
            {"name": "jump_moments", "a": 4.0},
        ],
        "diagnostics": [{"name": "apt", "T": 1.0}, {"name": "manifold_rate"}],
    }


def _saddle_invariants(doc: dict) -> list:
    bad = _no_blowups(doc)
    if doc["report"]["verdict"] != "pass":
        bad.append(f"verdict {doc['report']['verdict']}")
    for name in ("apt", "manifold_rate"):
        median = doc["diagnostics"][name]["median_rate"]
        if not _finite_negative(median):
            bad.append(f"{name} median {median} is not finite and negative")
    return bad


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "linear_simulate", "simulate", 2000, min(2, len(os.sched_getaffinity(0))),
            _linear_config, _linear_invariants,
        ),
        Workload("vrrw_check", "check", 200, 1, _vrrw_config, _vrrw_invariants),
        Workload("saddle_check", "check", 1000, 1, _saddle_config, _saddle_invariants),
    )
}
