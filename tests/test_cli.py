"""Tests for the config layer, canonical JSON output, and the CLI commands."""

import concurrent.futures
import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import runpy
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trapcheck import cli, engine, flow, hypotheses, sequences, spectral
from trapcheck.cli import (
    _CHECKS,
    _CONFIG_PARAMS,
    _DIAGNOSTICS,
    _MODEL_PARAMS,
    _SCHEDULE_PARAMS,
    _SEQUENCE_PARAMS,
    ExperimentConfig,
    _build_model,
    _build_schedule,
    _capture_plan,
    _resolve_split_and_constants,
    canonical_json,
    config_hash,
    main,
    run_experiment,
)
from trapcheck.errors import BlowUpError, ConfigError, TrapcheckError
from trapcheck.flow import apt_deficit, time_change
from trapcheck.spectral import project_pm

from conftest import InProcessPool, traced_peak

REPO = Path(__file__).resolve().parents[1]


def _state_grid(N):
    """The diagnostics' state grid: 1024 log-spaced steps of [1, N] at most."""
    return np.unique(np.geomspace(1, N, min(1024, N)).astype(np.int64))


def _manifold_csv(path, t, states, split, x_star):
    """``manifold_rate.csv`` of one run's states: the norm of their
    non-repulsive split coordinates, and its log above the 1e-300 floor."""
    _, y_minus = project_pm(split, states, x_star)
    dist = np.linalg.norm(y_minus, axis=-1)
    logs = np.log(np.maximum(dist, 1e-300))
    engine._write_csv(path, ["t", "distance", "log_distance"], [t, dist, logs])


def base_config(**overrides):
    cfg = {
        "model": {"kind": "linear", "H": [[1.0]]},
        "schedule": {"kind": "harmonic"},
        "N": 400,
        "n_runs": 40,
        "master_seed": 20260815,
        "x0": [0.1],
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------


class TestCanonicalJson:
    def test_key_order_is_canonical(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_round_trip_is_exact(self):
        doc = {
            "f": 0.1,
            "third": 1.0 / 3.0,
            "tiny": 5e-324,
            "neg": -1.2345678901234567e300,
            "i": 12,
            "nested": {"arr": [1.5, 2, [0.25]], "s": "x"},
        }
        text = canonical_json(doc)
        assert canonical_json(json.loads(text)) == text

    def test_non_finite_values_become_strings(self):
        text = canonical_json({"a": float("inf"), "b": float("nan"), "c": -np.inf})
        doc = json.loads(text)
        assert doc == {"a": "inf", "b": "nan", "c": "-inf"}

    def test_numpy_types_are_plain(self):
        text = canonical_json(
            {"arr": np.array([1.5, 2.5]), "i": np.int64(3), "f": np.float64(0.5)}
        )
        assert json.loads(text) == {"arr": [1.5, 2.5], "i": 3, "f": 0.5}

    def test_summary_file_is_the_canonical_json(self, tmp_path):
        cfg = base_config(checks=[{"name": "noise_excitation"}], diagnostics=[{"name": "apt"}])
        _, doc = run_experiment(ExperimentConfig.from_dict(cfg), out_dir=tmp_path)
        assert (tmp_path / "summary.json").read_bytes() == canonical_json(doc).encode()

    def test_config_hash_is_order_insensitive(self):
        h1 = config_hash({"a": 1, "b": [1, 2], "c": {"x": 0.5}})
        h2 = config_hash({"c": {"x": 0.5}, "b": [1, 2], "a": 1})
        assert h1 == h2
        assert len(h1) == 64
        assert config_hash({"a": 2}) != config_hash({"a": 1})

    @settings(max_examples=60, deadline=None)
    @given(
        cfg=st.dictionaries(
            st.text(max_size=8),
            st.recursive(
                st.none() | st.booleans() | st.integers() | st.text(max_size=8)
                | st.floats(allow_nan=False, allow_infinity=False),
                lambda inner: st.lists(inner, max_size=4)
                | st.dictionaries(st.text(max_size=8), inner, max_size=4),
                max_leaves=12,
            ),
            max_size=6,
        )
    )
    def test_config_hash_is_hashlib_sha256(self, cfg):
        # CPython's own SHA-256 gives hashlib's digest; hashlib stays out of
        # the package, which would load OpenSSL's libcrypto for it
        import hashlib

        compact = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
        assert config_hash(cfg) == hashlib.sha256(compact.encode()).hexdigest()


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


class TestExperimentConfig:
    def test_minimal_config_defaults(self):
        cfg = ExperimentConfig.from_dict(base_config())
        assert cfg.N == 400
        assert cfg.near_trap_radius == 1e-2
        assert cfg.max_blowup_fraction == 0.5
        assert cfg.checks == ()
        assert cfg.theorem is None

    @pytest.mark.parametrize("key", ["model", "schedule", "N", "n_runs", "master_seed"])
    def test_missing_required_field(self, key):
        cfg = base_config()
        del cfg[key]
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(cfg)
        assert err.value.path == key

    def test_unknown_check_name(self):
        cfg = base_config(checks=[{"name": "telepathy"}])
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(cfg)
        assert err.value.path == "checks[0].name"

    def test_check_window_must_fit_horizon(self):
        cfg = base_config(checks=[{"name": "remainder", "window": [0, 500]}])
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(cfg)
        assert err.value.path == "checks[0].window"

    @pytest.mark.parametrize(
        "name", ["noise_excitation", "remainder", "drift_sign", "jump_moments", "tail_noise"]
    )
    def test_checks_that_read_a_window_take_one(self, name):
        cfg = ExperimentConfig.from_dict(base_config(checks=[{"name": name, "window": [1, 10]}]))
        assert cfg.checks[0]["window"] == (1, 10)

    def test_unknown_diagnostic(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(base_config(diagnostics=[{"name": "vibes"}]))
        assert err.value.path == "diagnostics[0].name"

    def test_unknown_theorem(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(base_config(theorem="th99"))
        assert err.value.path == "theorem"

    def test_rate_window_bounds(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(base_config(rate_window=[0, 100]))
        assert err.value.path == "rate_window"
        cfg = ExperimentConfig.from_dict(base_config(rate_window=[10, 400]))
        assert cfg.rate_window == (10, 400)

    def test_load_reports_json_line(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{\n  "model": oops\n}')
        with pytest.raises(ConfigError, match="line 2"):
            ExperimentConfig.load(p)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig.load(tmp_path / "nope.json")


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------


class TestRunExperiment:
    def test_passing_checks_exit_zero(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            base_config(checks=[{"name": "noise_excitation"}, {"name": "remainder"}])
        )
        code, doc = run_experiment(cfg, out_dir=tmp_path)
        assert code == 0
        assert doc["report"]["verdict"] == "pass"
        assert doc["schema_version"] == 1
        assert (tmp_path / "summary.json").exists()
        names = [c["name"] for c in doc["report"]["conditions"]]
        assert names == ["noise_excitation", "remainder_square_summable"]

    def test_degenerate_control_fails_and_names_condition(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            base_config(
                model={"kind": "control", "which": "degenerate_noise"},
                checks=[{"name": "noise_excitation"}],
            )
        )
        code, doc = run_experiment(cfg, out_dir=tmp_path)
        assert code == 2
        assert doc["report"]["verdict"] == "fail"
        failed = [c for c in doc["report"]["conditions"] if c["verdict"] == "fail"]
        assert failed and failed[0]["name"] == "noise_excitation"

    def test_summary_file_round_trips_exactly(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config(n_runs=8))
        run_experiment(cfg, out_dir=tmp_path)
        text = (tmp_path / "summary.json").read_text()
        assert canonical_json(json.loads(text)) == text

    def test_deterministic_modulo_meta_across_workers(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            base_config(checks=[{"name": "noise_excitation"}])
        )
        docs = []
        for workers, sub in ((1, "a"), (2, "b")):
            run_experiment(cfg, workers=workers, out_dir=tmp_path / sub)
            doc = json.loads((tmp_path / sub / "summary.json").read_text())
            assert doc["meta"]["workers"] == workers
            del doc["meta"]
            docs.append(canonical_json(doc))
        assert docs[0] == docs[1]

    def test_vrrw_jump_moments_and_tail_noise_across_workers(self, tmp_path):
        step = {"kind": "power", "exponent": 1.0, "offset": 1.0}
        cfg = ExperimentConfig.from_dict(
            {
                "model": {"kind": "vrrw_meanfield", "d": 3, "alpha": 2.0},
                "schedule": {"gamma": step, "c": dict(step)},
                "N": 2000,
                "n_runs": 40,
                "master_seed": 20260815,
                "checks": [
                    {"name": "jump_moments", "a": 4.0},
                    {"name": "tail_noise", "window": [100, 2000]},
                ],
            }
        )
        bodies = []
        for workers, sub in ((1, "a"), (2, "b")):
            code, _ = run_experiment(cfg, workers=workers, out_dir=tmp_path / sub)
            assert code == 0
            doc = json.loads((tmp_path / sub / "summary.json").read_text())
            del doc["meta"]
            bodies.append(canonical_json(doc))
        assert bodies[0] == bodies[1]
        conds = json.loads(bodies[0])["report"]["conditions"]
        assert [(c["name"], c["verdict"]) for c in conds] == [
            ("jump_moments", "pass"),
            ("tail_noise_smallness", "pass"),
        ]

    def test_adapted_drift_sign_on_saddle(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            base_config(
                model={"kind": "linear", "H": [[1.0, 0.0], [0.0, -1.0]]},
                x0=[0.1, 0.1],
                checks=[
                    {"name": "drift_sign", "adapted": True, "rho": 1.0},
                    {"name": "rate_condition", "nu": 1.0},
                ],
            )
        )
        code, doc = run_experiment(cfg, out_dir=tmp_path)
        assert code == 0
        conds = {c["name"]: c for c in doc["report"]["conditions"]}
        assert conds["drift_sign_nonneg"]["verdict"] == "pass"
        rate = conds["rate_condition"]
        assert rate["verdict"] == "pass"
        assert rate["estimates"]["mu"] == -1.0
        assert rate["estimates"]["margin"] == pytest.approx(0.5, abs=0.05)

    def test_default_tail_window_at_round_n_gives_a_verdict(self, tmp_path):
        # the default window (N // 10, N) ends at 2000 = 10 * 200: one decade
        cfg = ExperimentConfig.from_dict(
            base_config(
                model={"kind": "synthetic"},
                x0=None,
                N=2000,
                n_runs=32,
                master_seed=1,
                checks=[{"name": "tail_noise"}],
            )
        )
        _, doc = run_experiment(cfg, out_dir=tmp_path)
        (cond,) = doc["report"]["conditions"]
        assert cond["verdict"] == "pass"

    def test_theorem_inference(self, tmp_path):
        plain = ExperimentConfig.from_dict(base_config(n_runs=4))
        _, doc = run_experiment(plain, out_dir=tmp_path / "a")
        assert doc["report"]["theorem_id"] == "th2n"

        saddle = base_config(
            model={"kind": "linear", "H": [[1.0, 0.0], [0.0, -1.0]]},
            x0=[0.1, 0.1],
            n_runs=4,
            checks=[{"name": "rate_condition", "nu": 1.0}],
        )
        _, doc = run_experiment(
            ExperimentConfig.from_dict(saddle), out_dir=tmp_path / "b"
        )
        assert doc["report"]["theorem_id"] == "th5d"

        explicit = dict(saddle, theorem="th3bd")
        _, doc = run_experiment(
            ExperimentConfig.from_dict(explicit), out_dir=tmp_path / "c"
        )
        assert doc["report"]["theorem_id"] == "th3bd"

    def test_rate_condition_needs_nu(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            base_config(n_runs=4, checks=[{"name": "rate_condition"}])
        )
        with mock.patch.object(engine, "monte_carlo") as simulate:
            with pytest.raises(ConfigError, match="nu"):
                run_experiment(cfg, out_dir=tmp_path)
        simulate.assert_not_called()

    def test_empty_default_rate_window_fails_before_the_simulation(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config(N=10, n_runs=4))
        with mock.patch.object(engine, "monte_carlo") as simulate:
            with pytest.raises(ConfigError, match="default rate window"):
                run_experiment(cfg, out_dir=tmp_path / "out")
        simulate.assert_not_called()
        assert not (tmp_path / "out").exists()

    def test_walk_off_its_schedule_is_refused_at_the_schedule(self, tmp_path, capsys):
        # gamma_1 = c_1 = 1 puts every run on a vertex, where H(v) = A_JJ = 0
        cfg = base_config(
            N=60, n_runs=4, x0=None, model={"kind": "vrrw_walk", "d": 3, "alpha": 2.0}
        )
        p = write_config(tmp_path, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["simulate", "--config", str(p), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: schedule: c_1 = 1 ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_x0_dimension_checked(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            base_config(
                model={"kind": "linear", "H": [[1.0, 0.0], [0.0, -1.0]]}, n_runs=4
            )
        )
        with pytest.raises(ConfigError) as err:
            run_experiment(cfg, out_dir=tmp_path)
        assert err.value.path == "x0"
        assert str(err.value) == "x0: must have dimension 2"

    def test_horizon_must_cover_n(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(
                base_config(schedule={"kind": "harmonic", "horizon": 100}, n_runs=4)
            )
        assert err.value.path == "schedule.horizon"

    def test_unknown_model_kind(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(base_config(model={"kind": "pendulum"}))
        assert err.value.path == "model.kind"

    def test_unknown_control_name(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(base_config(model={"kind": "control", "which": "nope"}))
        assert err.value.path == "model.which"

    def test_trajectory_csvs_written(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            base_config(N=50, n_runs=4, output={"trajectories": 2})
        )
        run_experiment(cfg, out_dir=tmp_path)
        for i in range(2):
            p = tmp_path / "trajectories" / f"run_{i}.csv"
            assert p.exists()
            assert p.read_text().splitlines()[0] == "n,x_0,g_0,eps_0,rem_0"
        assert not (tmp_path / "trajectories" / "run_2.csv").exists()

    def test_diagnostics_in_summary_and_csv(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            base_config(
                model={"kind": "linear", "H": [[1.0, 0.0], [0.0, -1.0]]},
                x0=[0.1, 0.1],
                N=500,
                diagnostics=[{"name": "apt", "T": 0.5}, {"name": "manifold_rate"}],
                output={"write_diagnostics": True},
            )
        )
        code, doc = run_experiment(cfg, out_dir=tmp_path)
        assert code == 0
        assert np.isfinite(doc["diagnostics"]["apt"]["median_rate"])
        assert np.isfinite(doc["diagnostics"]["manifold_rate"]["median_rate"])
        assert (tmp_path / "diagnostics" / "apt.csv").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_csvs_equal_single_run_resimulation(self, tmp_path, workers):
        cfg = ExperimentConfig.from_dict(
            base_config(
                model={"kind": "linear", "H": [[1.0, 0.0], [0.0, -1.0]]},
                x0=[0.1, 0.1],
                N=300,
                n_runs=6,
                checks=[{"name": "remainder"}],
                diagnostics=[{"name": "apt", "T": 0.5}],
                output={"trajectories": 2, "write_diagnostics": True},
            )
        )
        run_experiment(cfg, workers=workers, out_dir=tmp_path / "out")
        model = _build_model(cfg.model)
        schedule = _build_schedule(cfg.schedule, model)
        ref = tmp_path / "ref"
        ref.mkdir()
        for i in range(2):
            traj = engine.run(
                model, schedule, np.array(cfg.x0), cfg.N,
                engine._seed_for_run(cfg.master_seed, i),
            )
            traj.to_csv(ref / f"run_{i}.csv")
            got = (tmp_path / "out" / "trajectories" / f"run_{i}.csv").read_bytes()
            assert got == (ref / f"run_{i}.csv").read_bytes()
            if i == 0:
                path = time_change(traj, indices=_state_grid(cfg.N))
                res = apt_deficit(path, model.field, T=0.5)
                engine._write_csv(ref / "apt.csv", ["t", "deficit"], [*res.first_run.values()])
        got = (tmp_path / "out" / "diagnostics" / "apt.csv").read_bytes()
        assert got == (ref / "apt.csv").read_bytes()

    @staticmethod
    def _ensemble_of(cfg):
        """The config's model and ensemble, with the state capture the
        diagnostics read."""
        model = _build_model(cfg.model)
        schedule = _build_schedule(cfg.schedule, model)
        summary = engine.monte_carlo(
            model, schedule, np.array(cfg.x0), cfg.N, cfg.n_runs, cfg.master_seed,
            captures=engine.CaptureSpec(state_indices=tuple(_state_grid(cfg.N))),
        )
        return model, summary

    def test_apt_csv_is_run_zero_row_with_configured_restarts(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            base_config(
                model={"kind": "linear", "H": [[1.0, 0.0], [0.0, -1.0]]},
                x0=[0.1, 0.1],
                N=500,
                n_runs=6,
                diagnostics=[{"name": "apt", "T": 0.5, "n_restarts": 8}],
                output={"write_diagnostics": True},
            )
        )
        code, doc = run_experiment(cfg, out_dir=tmp_path)
        assert code == 0
        model, summary = self._ensemble_of(cfg)
        want = flow.ensemble_apt_deficit(summary, model.field, T=0.5, n_restarts=8)
        assert doc["diagnostics"]["apt"]["median_rate"] == want.median
        data = np.loadtxt(tmp_path / "diagnostics" / "apt.csv", delimiter=",", skiprows=1)
        assert 2 <= len(data) <= 8
        assert np.array_equal(data[:, 0], want.first_run["t"])
        assert np.array_equal(data[:, 1], want.first_run["deficit"])

    @pytest.mark.parametrize(
        "model, x0",
        [
            ({"kind": "synthetic", "mu": -1.0, "nu": 1.0, "dim": 2, "delta_plus": 1}, [0.0, 0.3]),
            # no declared invariant set: the split alone gives the distances
            ({"kind": "linear", "H": [[1.0, 0.5], [0.0, -1.0]]}, [0.1, 0.1]),
        ],
    )
    def test_manifold_rate_csv_uses_the_split_of_the_median(self, tmp_path, model, x0):
        cfg = ExperimentConfig.from_dict(
            base_config(
                model=model,
                x0=x0,
                N=2000,
                n_runs=8,
                diagnostics=[{"name": "manifold_rate"}],
                output={"write_diagnostics": True},
            )
        )
        code, doc = run_experiment(cfg, out_dir=tmp_path / "out")
        assert code == 0
        model, summary = self._ensemble_of(cfg)
        split, _, _ = _resolve_split_and_constants(model)
        assert split is not None and 1 <= split.delta_plus < model.dim
        x_star = model.trap.x_star
        rates = flow.ensemble_manifold_rate(summary, split=split)
        assert doc["diagnostics"]["manifold_rate"]["median_rate"] == rates.median
        _manifold_csv(tmp_path / "ref.csv", rates.t_values, summary.captured_states[0],
                      split, x_star)
        got = (tmp_path / "out" / "diagnostics" / "manifold_rate.csv").read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes()

    def test_blown_up_run_zero_writes_the_first_unblown_run(self, tmp_path, capsys):
        # seed 3 blows up runs 0, 1 and 6 of 8, so the diagnostic CSVs hold
        # the rows of run 2, and each entry names it
        cfg_dict = base_config(
            model={"kind": "linear", "H": [[4.0, 0.0], [0.0, -1.0]]},
            x0=[0.0, 0.0],
            N=100,
            n_runs=8,
            master_seed=3,
            max_blowup_fraction=0.9,
            diagnostics=[{"name": "apt", "T": 0.5}, {"name": "manifold_rate"}],
            output={"write_diagnostics": True},
        )
        p = write_config(tmp_path, cfg_dict)
        code = main(["check", "--config", str(p), "--out", str(tmp_path / "out")])
        assert "Traceback" not in capsys.readouterr().err
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert code == (2 if doc["report"]["verdict"] == "fail" else 0)
        assert doc["ensemble"]["blowup_runs"] == [0, 1, 6]
        assert doc["diagnostics"]["apt"]["csv_run"] == 2
        assert doc["diagnostics"]["manifold_rate"]["csv_run"] == 2

        cfg = ExperimentConfig.from_dict(cfg_dict)
        model, summary = self._ensemble_of(cfg)
        apt = flow.ensemble_apt_deficit(summary, model.field, T=0.5)
        data = np.loadtxt(tmp_path / "out" / "diagnostics" / "apt.csv", delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 1], apt.first_run["deficit"])
        split, _, _ = _resolve_split_and_constants(model)
        x_star = model.trap.x_star
        rates = flow.ensemble_manifold_rate(summary, split=split)
        _manifold_csv(tmp_path / "ref.csv", rates.t_values, summary.captured_states[2],
                      split, x_star)
        got = (tmp_path / "out" / "diagnostics" / "manifold_rate.csv").read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes()

    def test_vrrw_natural_schedule_runs(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {
                "model": {"kind": "vrrw_walk", "d": 3, "alpha": 2.0},
                "schedule": {"kind": "natural"},
                "N": 300,
                "n_runs": 4,
                "master_seed": 11,
            }
        )
        code, doc = run_experiment(cfg, out_dir=tmp_path, with_checks=False)
        assert code == 0
        assert doc["report"] is None
        assert doc["ensemble"]["n_runs"] == 4
        assert doc["ensemble"]["blowup_count"] == 0


# ---------------------------------------------------------------------------
# check records: the capture plan and each checker's call
# ---------------------------------------------------------------------------


def _frozen_capture_plan(config):
    """The capture plan as one chain on check names built it before each
    check had its own record; the records' merged plan must equal it."""
    N = config.N
    state_idx: set = set()
    inc_idx: set = set()
    full_runs = set(range(min(config.output["trajectories"], config.n_runs)))
    if config.diagnostics:
        state_idx.update(_state_grid(N).tolist())
    for c in config.checks:
        name = c["name"]
        lo, hi = c.get("window") or (max(1, N // 10), N)
        if name in ("noise_excitation", "jump_moments"):
            k = c.get("k", 1)
            base = np.unique(
                np.geomspace(max(lo, 1), max(hi - k, lo + 1), 64).astype(np.int64)
            )
            for b in base:
                inc_idx.update(range(int(b), min(int(b) + k, N)))
        elif name == "tail_noise":
            inc_idx.update(range(lo, min(hi, N)))
        elif name in ("remainder", "drift_sign"):
            full_runs.add(0)
    return engine.CaptureSpec(
        state_indices=tuple(sorted(state_idx)),
        increment_indices=tuple(sorted(inc_idx)),
        full_runs=tuple(sorted(full_runs)),
    )


@st.composite
def _plan_configs(draw):
    """A config with random checks, windows, ``k``, diagnostics and kept
    trajectories."""
    N = draw(st.integers(1, 200_000))
    checks = []
    for name in draw(st.lists(st.sampled_from(sorted(_CHECKS)), max_size=6)):
        c = {"name": name}
        if name == "noise_excitation":
            c["k"] = draw(st.integers(1, 80))
        if "window" in _CHECKS[name].params and draw(st.booleans()):
            lo = draw(st.integers(0, N - 1))
            c["window"] = [lo, draw(st.integers(lo + 1, N))]
        checks.append(c)
    names = draw(st.lists(st.sampled_from(sorted(_DIAGNOSTICS)), max_size=3))
    diagnostics = [{"name": name} for name in names]
    return ExperimentConfig.from_dict(
        base_config(
            N=N,
            n_runs=draw(st.integers(1, 5)),
            checks=checks,
            diagnostics=diagnostics,
            output={"trajectories": draw(st.integers(0, 3))},
        )
    )


class TestCheckRecords:
    @settings(max_examples=200, deadline=None)
    @given(config=_plan_configs())
    # long tail windows, kept whole: the default one at N = 10^5, and a
    # given one next to sampled steps
    @example(
        config=ExperimentConfig.from_dict(base_config(N=10**5, checks=[{"name": "tail_noise"}]))
    )
    @example(
        config=ExperimentConfig.from_dict(
            base_config(
                N=200_000,
                checks=[
                    {"name": "noise_excitation", "k": 7, "window": [5, 150_000]},
                    {"name": "tail_noise", "window": [3, 150_000]},
                    {"name": "drift_sign"},
                ],
            )
        )
    )
    def test_merged_plan_equals_the_chain(self, config):
        plan = _capture_plan(config, None, None)
        frozen = _frozen_capture_plan(config)
        for name in ("state_indices", "increment_indices", "full_runs"):
            got = getattr(plan, name)
            assert got.dtype == np.int64
            assert np.all(got[1:] > got[:-1])
            assert np.array_equal(got, getattr(frozen, name))
        # without a split, the noise checks read the full vector at their
        # default moment exponent, and tail_noise reads nothing
        reads = {"noise_excitation": ((None, None), (None, 2.0)), "jump_moments": ((None, 2.0),)}
        want = dict.fromkeys(st for c in config.checks for st in reads.get(c["name"], ()))
        assert plan.statistics == tuple(want)

    def test_plan_allocates_a_few_int64_arrays_per_window(self):
        # the default tail_noise window at N = 2*10^5 holds 180,000 steps:
        # the plan and its normalized form peak at about four int64 arrays
        # of it; as sets and tuples of Python ints they peaked at 19.8 MB,
        # 110 bytes a step
        N = 200_000
        config = ExperimentConfig.from_dict(base_config(N=N, checks=[{"name": "tail_noise"}]))

        def plan():
            return engine.CaptureSpec.normalize(_capture_plan(config, None, None), N)

        steps = len(plan().increment_indices)
        assert steps == N - N // 10
        assert traced_peak(plan) <= 5 * 8 * steps

    def test_plan_keeps_the_norms_each_check_reads(self):
        split = spectral.split_jacobian(np.diag([1.0, -1.0, -2.0]))
        plus, minus = (hypotheses.projection(split, block) for block in ("plus", "minus"))

        def statistics(*checks, split=split, nu=None):
            checks = [c if isinstance(c, dict) else {"name": c} for c in checks]
            cfg = ExperimentConfig.from_dict(base_config(checks=checks))
            return _capture_plan(cfg, split, nu).statistics

        assert statistics("noise_excitation") == ((plus, None), (None, 2.0))
        assert statistics("jump_moments") == ((None, 2.0),)
        assert statistics("tail_noise") == ((minus, 1.0),)
        assert statistics("tail_noise", "jump_moments", "noise_excitation") == (
            (minus, 1.0), (None, 2.0), (plus, None)
        )
        assert statistics("remainder", "drift_sign", "rate_condition") == ()
        # without a repulsive block, noise_excitation reads the full vector
        stable = spectral.split_jacobian(np.diag([-1.0, -2.0]))
        assert statistics("noise_excitation", "jump_moments", split=stable) == (
            (None, None), (None, 2.0)
        )
        # a check's a and nu set its powers; the model's nu is tail_noise's default
        assert statistics({"name": "jump_moments", "a": 6.0}) == ((None, 3.0),)
        assert statistics({"name": "tail_noise", "nu": 0.5}, nu=3.0) == ((minus, 0.75),)
        assert statistics("tail_noise", nu=3.0) == ((minus, 2.0),)
        assert statistics("tail_noise", split=None) == ()

    #: A synthetic saddle with every check, on a model ``nu`` that no default
    #: equals: the remainder in ``split_r`` mode, a tail window that ends
    #: before the captured steps do, and the drift sign in the adapted form,
    #: where it reads 1 and the Euclidean form 0 (run 0 starts on the trap,
    #: and that step is left out).
    _SADDLE = base_config(
        model={"kind": "synthetic", "nu": 0.5},
        x0=None,
        N=2000,
        n_runs=64,
        master_seed=1,
        checks=[
            {"name": "noise_excitation"},
            {"name": "remainder", "mode": "split_r"},
            {"name": "drift_sign", "adapted": True, "rho": 10.0},
            {"name": "rate_condition"},
            {"name": "jump_moments", "a": 3.0},
            {"name": "tail_noise", "window": [100, 1900]},
        ],
    )

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            # gamma_n = 2.05 / n at seed 3 drives 25 of 64 runs out of the
            # region, run 0 among them, and leaves 39 for the ensemble checks
            {"schedule": {"kind": "power", "gamma_scale": 2.05}, "master_seed": 3},
        ],
        ids=["all-runs", "run-0-blown"],
    )
    def test_each_check_calls_its_checker(self, tmp_path, overrides):
        cfg = ExperimentConfig.from_dict(dict(self._SADDLE, **overrides))
        summaries = []

        def keep(*args, **kwargs):
            summaries.append(simulate(*args, **kwargs))
            return summaries[-1]

        simulate = engine.monte_carlo
        with mock.patch.object(engine, "monte_carlo", keep):
            _, doc = run_experiment(cfg, out_dir=tmp_path)
        (summary,) = summaries

        # the documented defaults, and the model's declared mu and nu
        model = _build_model(cfg.model)
        schedule = _build_schedule(cfg.schedule, model)
        trap = model.trap
        split = spectral.split_jacobian(trap.jacobian)
        rates = sequences.rate_constants(schedule, (20, 2000))  # the default (N / 100, N)
        if summary.ok[0]:
            run0 = summary.trajectory(0)
            remainder = hypotheses.check_remainder(run0, "split_r", trap.nu)
            drift = hypotheses.check_drift_sign(run0, trap.x_star, rho=10.0, split=split)
        else:
            with pytest.raises(BlowUpError) as blowup:
                summary.trajectory(0)
            reason = f"run 0 blew up at step {blowup.value.step}"
            remainder = hypotheses._inconclusive("remainder_split_r", reason)
            drift = hypotheses._inconclusive("drift_sign_nonneg", reason)
        want = [
            hypotheses.check_noise_excitation(summary, split),
            remainder,
            drift,
            hypotheses.check_rate_condition(rates, trap.mu, trap.nu),
            hypotheses.check_jump_moments(summary, 3.0),
            hypotheses.check_tail_noise_condition(summary, split, trap.nu, (100, 1900)),
        ]
        assert canonical_json(doc["report"]["conditions"]) == canonical_json(
            [c.to_dict() for c in want]
        )
        # the moment exponent of the last check that has one
        constants = hypotheses.make_constants(rates.lambda_hat, trap.mu, trap.nu, 3.0, 1)
        assert canonical_json(doc["report"]["constants"]) == canonical_json(constants)
        assert {c["verdict"] for c in doc["report"]["conditions"]} != {"inconclusive"}

    @pytest.mark.xfail(
        strict=True,
        reason="noise_excitation reads every captured step in its window, "
        "also the steps that tail_noise asked for",
    )
    def test_noise_excitation_reads_only_its_own_steps(self, tmp_path):
        # alone it reads 64 windows (liminf 0.50394515); with tail_noise it
        # reads 1900 (liminf 0.50358299)
        cfg = {
            "model": {"kind": "vrrw_meanfield", "d": 3, "alpha": 2.0},
            "schedule": {"kind": "natural"},
            "N": 2000,
            "n_runs": 32,
            "master_seed": 5,
        }
        estimates = []
        for extra in ([], [{"name": "tail_noise", "window": [100, 2000]}]):
            checks = [{"name": "noise_excitation"}, *extra]
            config = ExperimentConfig.from_dict(dict(cfg, checks=checks))
            _, doc = run_experiment(config, out_dir=tmp_path / str(len(extra)))
            est = doc["report"]["conditions"][0]["estimates"]
            estimates.append((est["n_windows"], est["excitation_liminf"]))
        assert estimates[0] == estimates[1]

    def test_tail_noise_default_window_gives_a_verdict_past_the_cap(self, tmp_path):
        # the whole default window (3000, 30000) is captured: a capture cut
        # to its last 20,000 steps spans less than a decade
        cfg = {
            "model": {"kind": "synthetic"},
            "schedule": {"kind": "harmonic"},
            "N": 30_000,
            "n_runs": 32,
            "master_seed": 5,
            "checks": [{"name": "tail_noise"}],
        }
        _, doc = run_experiment(ExperimentConfig.from_dict(cfg), out_dir=tmp_path)
        (cond,) = doc["report"]["conditions"]
        assert cond["verdict"] in ("pass", "fail"), cond["estimates"]


def _frozen_run_diagnostics(config, model, summary, split, ddir):
    """The diagnostics as one chain on diagnostic names ran them before each
    diagnostic had its own record, recomputing the manifold CSV's distances;
    the records must give the same entries and CSV bytes."""
    csv_run = int(np.argmax(summary.ok)) if summary.ok.any() else None
    named = {} if ddir is None or csv_run == 0 else {"csv_run": csv_run}
    ddir = None if csv_run is None else ddir
    if ddir is not None:
        ddir.mkdir(parents=True, exist_ok=True)
    out = {}
    for dg in config.diagnostics:
        name = dg["name"]
        if name == "apt":
            res = flow.ensemble_apt_deficit(
                summary,
                model.field,
                T=dg["T"],
                normalization=dg["normalization"],
                n_restarts=dg["n_restarts"],
            )
            out[name] = {"n_excluded_restarts": res.n_excluded}
            if ddir is not None:
                rows = ["t", "deficit"], [res.first_run["t"], res.first_run["deficit"]]
        elif name == "manifold_rate":
            use_split = split if (split is not None and 1 <= split.delta_plus < model.dim) else None
            K = model.manifold_K if use_split is None else None
            if use_split is None and K is None:
                out[name] = {"error": "model declares no invariant set"}
                continue
            res = flow.ensemble_manifold_rate(summary, K, use_split)
            out[name] = {}
            if ddir is not None:
                states = summary.captured_states[csv_run]
                dist = flow._distances_to_K(states, K, use_split, summary.trap_point)
                logs = np.log(np.maximum(dist, flow._DISTANCE_FLOOR))
                rows = ["t", "distance", "log_distance"], [res.t_values, dist, logs]
        out[name].update(
            median_rate=res.median, n_rates=int(np.count_nonzero(~np.isnan(res.rates))), **named
        )
        if ddir is not None:
            engine._write_csv(ddir / f"{name}.csv", *rows)
    return out


_MANIFOLD = {"diagnostics": [{"name": "manifold_rate"}]}
_SYNTHETIC = {
    "model": {"kind": "synthetic", "mu": -1.0, "nu": 1.0, "dim": 3, "delta_plus": 1},
    "x0": [0.0, 0.3, 0.2],
    **_MANIFOLD,
}


class TestDiagnosticRecords:
    @pytest.mark.parametrize(
        "overrides, split_of",
        [
            ({"diagnostics": [{"name": "apt"}]}, "model"),
            (
                {"diagnostics": [{"name": "apt", "T": 0.3, "n_restarts": 7}], "master_seed": 4},
                "model",
            ),
            (
                {"diagnostics": [{"name": "apt", "T": 2.0, "normalization": "absolute"}]},
                "model",
            ),
            # a linear model declares no K: the split alone gives the distances
            (_MANIFOLD, "model"),
            (_SYNTHETIC, "model"),
            # no config reaches K alone: every model with a K has a usable split
            (_SYNTHETIC, None),
            # neither: the split of a 1-D saddle has no non-repulsive block
            ({"model": {"kind": "linear"}, "x0": [0.1], **_MANIFOLD}, "model"),
            ({"diagnostics": [{"name": "manifold_rate"}, {"name": "apt"}]}, None),
            # seed 3 blows up runs 0, 1 and 6 of 8: the CSVs are run 2's
            (
                {
                    "model": {"kind": "linear", "H": [[4.0, 0.0], [0.0, -1.0]]},
                    "x0": [0.0, 0.0],
                    "N": 100,
                    "n_runs": 8,
                    "master_seed": 3,
                    "max_blowup_fraction": 0.9,
                    "diagnostics": [{"name": "apt", "T": 0.5}, {"name": "manifold_rate"}],
                },
                "model",
            ),
        ],
        ids=[
            "apt-default", "apt-short", "apt-absolute", "manifold-split", "manifold-synthetic",
            "manifold-K", "manifold-1d", "neither-and-apt", "run-0-blown",
        ],
    )
    def test_records_equal_the_chain(self, tmp_path, overrides, split_of):
        saddle = {"kind": "linear", "H": [[1.0, 0.0], [0.0, -1.0]]}
        cfg = base_config(model=saddle, x0=[0.1, 0.1], N=500, n_runs=6)
        cfg = ExperimentConfig.from_dict(dict(cfg, **overrides))
        model = _build_model(cfg.model)
        schedule = _build_schedule(cfg.schedule, model)
        summary = engine.monte_carlo(
            model, schedule, np.array(cfg.x0), cfg.N, cfg.n_runs, cfg.master_seed,
            captures=_capture_plan(cfg, None, None),
        )
        split = _resolve_split_and_constants(model)[0] if split_of == "model" else None
        inputs = {"field": model.field, "K": model.manifold_K, "split": split}
        for write in (False, True):
            config = dataclasses.replace(cfg, output=dict(cfg.output, write_diagnostics=write))
            files = {}
            got = cli._run_diagnostics(config, summary, files, **inputs)
            want_dir = tmp_path / "want" / "diagnostics" if write else None
            want = _frozen_run_diagnostics(config, model, summary, split, want_dir)
            assert canonical_json(got) == canonical_json(want)
            if not write:
                assert files == {}
                continue
            (tmp_path / "got").mkdir()
            cli._write_artifacts(tmp_path / "got", files, {"meta": {"timings_s": {}}})
            # the chain made the directory also for no CSV; the writer makes
            # it only for a CSV
            names = sorted(p.name for p in want_dir.iterdir())
            got_dir = tmp_path / "got" / "diagnostics"
            assert got_dir.exists() == bool(names)
            assert sorted(p.name for p in got_dir.glob("*")) == names
            for name in names:
                assert (got_dir / name).read_bytes() == (want_dir / name).read_bytes()


# ---------------------------------------------------------------------------
# command-line entry points
# ---------------------------------------------------------------------------


class TestSpectralCommand:
    def test_split_matrix_exit_zero(self, capsys):
        assert main(["spectral", "[[1,0],[0,-2]]"]) == 0
        out = capsys.readouterr().out
        assert "classification=unstable_hyperbolic" in out
        assert "mu=-2" in out

    def test_repulsive_identity_reports_lambda(self, capsys):
        assert main(["spectral", "[[1,0,0],[0,1,0],[0,0,1]]"]) == 0
        out = capsys.readouterr().out
        assert "classification=repulsive" in out
        assert "lambda=1" in out

    def test_center_exits_two(self, capsys):
        assert main(["spectral", "[[0,-1],[1,0]]"]) == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("matrix", ["[[1e200, 0], [0, -1]]", "[[1e200, 1], [0, -1]]"])
    def test_norm_past_the_float_range_keeps_a_finite_tolerance(self, capsys, matrix):
        # ||H||_F squared overflows; the tolerance is 1e-8 * 1e200, so the
        # eigenvalue 1e200 is repulsive and -1 lies in the dead zone
        assert main(["spectral", "--json", matrix]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tol"] == 1e-8 * 1e200
        assert (doc["classification"], doc["delta_plus"], doc["mu"]) == (
            "unstable_nonhyperbolic", 1, 0.0
        )

    def test_json_output(self, capsys):
        assert main(["spectral", "--json", "[[1,0],[0,-2]]"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["delta_plus"] == 1
        assert doc["mu"] == -2.0
        assert doc["coercivity_lambda"] == pytest.approx(1.0)

    def test_matrix_from_csv_file(self, tmp_path, capsys):
        p = tmp_path / "H.csv"
        p.write_text("1,0\n0,-2\n")
        assert main(["spectral", str(p)]) == 0
        assert "delta_plus=1" in capsys.readouterr().out

    def test_bad_matrix_token_exits_one(self, capsys):
        assert main(["spectral", "definitely-not-a-matrix"]) == 1
        assert "error" in capsys.readouterr().err

    def test_directory_exits_one(self, tmp_path, capsys):
        assert main(["spectral", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: matrix: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "token, why",
        [
            ("[1, 2]", "expected a square matrix, got shape (2,)"),
            ("[[NaN]]", "matrix has non-finite entries"),
        ],
        ids=["not-square", "nan"],
    )
    def test_matrix_the_split_rejects_exits_one_at_its_path(self, capsys, token, why):
        assert main(["spectral", token]) == 1
        assert capsys.readouterr().err == f"error: matrix: {why}\n"

    @pytest.mark.parametrize(
        "content", [b"", b"\x00\xff\xfe", b"# no rows\n"], ids=["empty", "binary", "comment"]
    )
    def test_unparseable_file_exits_one(self, tmp_path, capsys, content):
        p = tmp_path / "H.csv"
        p.write_bytes(content)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["spectral", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: matrix: ")
        assert len(err.splitlines()) == 1

    def test_inline_json_that_is_no_matrix_exits_one(self, capsys):
        assert main(["spectral", '{"H": 1}']) == 1
        assert capsys.readouterr().err.startswith("error: matrix: ")


class TestExperimentCommands:
    @pytest.mark.parametrize(
        "argv, named",
        [
            (["check", "--config", "config.json", "--workers", "abc"], "--workers"),
            (["check"], "--config"),
            (["frobnicate"], "frobnicate"),
            ([], "command"),
        ],
        ids=["workers-abc", "config-missing", "unknown-command", "command-missing"],
    )
    def test_usage_error_exits_one(self, capsys, argv, named):
        with pytest.raises(SystemExit) as done:
            main(argv)
        assert done.value.code == 1
        err = capsys.readouterr().err
        assert "error: " in err and named in err

    @pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as done:
            main(argv)
        assert done.value.code == 0
        assert "usage: trapcheck" in capsys.readouterr().out

    def test_apt_window_beyond_the_clock_fails_before_the_simulation(self, tmp_path, capsys):
        # harmonic steps from N = 200: the drift clock ends at 5.878
        cfg = base_config(
            model={"kind": "synthetic"},
            x0=None,
            N=200,
            checks=[{"name": "remainder"}],
            diagnostics=[{"name": "manifold_rate"}, {"name": "apt", "T": 100}],
        )
        p = write_config(tmp_path, cfg)
        with mock.patch.object(engine, "monte_carlo") as simulate:
            code = main(["check", "--config", str(p), "--out", str(tmp_path / "out")])
        simulate.assert_not_called()
        assert code == 1
        assert capsys.readouterr().err == (
            "error: diagnostics[1].T: the drift clock ends at 5.878: "
            "window T = 100 leaves no admissible restart point\n"
        )
        assert not (tmp_path / "out").exists()
    def test_tail_noise_on_vanishing_alpha_is_inconclusive(self, tmp_path, capsys):
        # c_n = 2^-n: alpha(t) is 0.0 in floating point inside the default window
        p = write_config(
            tmp_path,
            base_config(
                model={"kind": "synthetic"},
                x0=[0.0, 0.3],
                schedule={"gamma": {"kind": "power"}, "c": {"kind": "geometric", "ratio": 0.5}},
                N=2000,
                master_seed=1,
                checks=[{"name": "tail_noise"}],
            ),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["check", "--config", str(p), "--out", str(tmp_path / "out"), "--json"])
        out, err = capsys.readouterr()
        assert code == 0
        assert err == ""
        (cond,) = json.loads(out)["report"]["conditions"]
        assert cond["verdict"] == "inconclusive"
        assert cond["estimates"] == {"reason": "alpha(t) is 0 on the grid"}

    def test_check_command_json_and_seed_override(self, tmp_path, capsys):
        p = write_config(
            tmp_path, base_config(checks=[{"name": "noise_excitation"}])
        )
        code = main(
            [
                "check",
                "--config",
                str(p),
                "--seed",
                "123",
                "--out",
                str(tmp_path / "out"),
                "--json",
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        # --json prints the bytes summary.json holds
        assert text == (tmp_path / "out" / "summary.json").read_text()
        doc = json.loads(text)
        assert doc["master_seed"] == 123
        assert doc["report"]["verdict"] == "pass"

    def test_failing_control_exits_two_and_names_check(self, tmp_path, capsys):
        p = write_config(
            tmp_path,
            base_config(
                model={"kind": "control", "which": "degenerate_noise"},
                checks=[{"name": "noise_excitation"}],
            ),
        )
        code = main(["check", "--config", str(p), "--out", str(tmp_path / "out")])
        assert code == 2
        out = capsys.readouterr().out
        assert "noise_excitation" in out
        assert "fail" in out

    def test_simulate_skips_checks(self, tmp_path):
        p = write_config(
            tmp_path,
            base_config(
                model={"kind": "control", "which": "degenerate_noise"},
                checks=[{"name": "noise_excitation"}],
                diagnostics=[{"name": "apt"}],
                output={"write_diagnostics": True},
                n_runs=4,
            ),
        )
        assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "out")]) == 0
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert doc["report"] is None
        assert doc["diagnostics"] == {}
        assert not (tmp_path / "out" / "diagnostics").exists()

    def test_diagnostic_without_a_csv_makes_no_directory(self, tmp_path):
        # a 1-D model declares no invariant set, and its split has no
        # non-repulsive block: manifold_rate has nothing to measure against
        p = write_config(
            tmp_path,
            base_config(
                model={"kind": "linear", "H": [[1.0]]},
                diagnostics=[{"name": "manifold_rate"}],
                output={"write_diagnostics": True},
            ),
        )
        assert main(["check", "--config", str(p), "--out", str(tmp_path / "out")]) == 0
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert doc["diagnostics"] == {"manifold_rate": {"error": "model declares no invariant set"}}
        assert not (tmp_path / "out" / "diagnostics").exists()

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        cfg = base_config()
        del cfg["master_seed"]
        p = write_config(tmp_path, cfg)
        assert main(["check", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
        assert "master_seed" in capsys.readouterr().err

    def test_blowup_guard_exits_one(self, tmp_path, capsys):
        p = write_config(
            tmp_path,
            base_config(
                model={"kind": "linear", "H": [[5.0]], "noise": "none"},
                N=100,
                n_runs=4,
                x0=[0.5],
            ),
        )
        assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
        assert "blew up" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("simulate", {"output": {"trajectories": 4}}),
            ("check", {"diagnostics": [{"name": "apt"}], "output": {"write_diagnostics": True}}),
            ("check", {"checks": [{"name": "remainder"}]}),
            ("check", {"checks": [{"name": "drift_sign"}]}),
        ],
    )
    def test_blown_up_run_zero_exits_one(self, tmp_path, capsys, command, extra):
        # seed 8 blows up runs 0, 3 and 5 of 8: under the ensemble limit.
        # Run 0 left the region, and no command exits for it: its trajectory
        # CSV is left out, the remainder check reads run 0 in full and is
        # inconclusive, and the diagnostic CSVs take the first run that
        # stayed, run 1
        p = write_config(
            tmp_path,
            base_config(
                model={"kind": "linear", "H": [[4.0]]},
                N=100,
                n_runs=8,
                master_seed=8,
                x0=[0.0],
                **extra,
            ),
        )
        code = main([command, "--config", str(p), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert doc["ensemble"]["blowup_runs"] == [0, 3, 5]
        if command == "simulate":
            assert code == 0
            tdir = tmp_path / "out" / "trajectories"
            assert sorted(f.name for f in tdir.iterdir()) == ["run_1.csv", "run_2.csv"]
            return
        assert code == (2 if doc["report"]["verdict"] == "fail" else 0)
        if "diagnostics" in extra:
            assert doc["diagnostics"]["apt"]["csv_run"] == 1
            assert (tmp_path / "out" / "diagnostics" / "apt.csv").is_file()
        else:
            cfg = ExperimentConfig.from_dict(json.loads(p.read_text()))
            model = _build_model(cfg.model)
            with pytest.raises(BlowUpError) as blowup:
                engine.run(model, _build_schedule(cfg.schedule, model), np.array(cfg.x0),
                           cfg.N, engine._seed_for_run(cfg.master_seed, 0))
            (cond,) = doc["report"]["conditions"]
            assert cond["verdict"] == "inconclusive"
            assert cond["estimates"]["reason"] == f"run 0 blew up at step {blowup.value.step}"

    def test_blown_kept_runs_write_no_trajectory(self, tmp_path, capsys):
        # H = 4 at seed 8 blows up runs 0, 3 and 5 of 8; the limit allows it
        p = write_config(
            tmp_path,
            base_config(
                model={"kind": "linear", "H": [[4.0]]},
                N=200,
                n_runs=8,
                master_seed=8,
                x0=[0.0],
                max_blowup_fraction=1.0,
                output={"trajectories": 1},
            ),
        )
        code = main(["simulate", "--config", str(p), "--out", str(tmp_path / "out")])
        assert "Traceback" not in capsys.readouterr().err
        assert code == 0
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert 0 in doc["ensemble"]["blowup_runs"]
        assert not (tmp_path / "out" / "trajectories").exists()

    def test_failed_split_without_declared_mu_is_inconclusive(self, tmp_path, capsys):
        # 5e-9 is too close to 0 to call, so the split fails, and a linear
        # model declares no mu to fall back on
        p = write_config(
            tmp_path,
            base_config(
                model={"kind": "linear", "H": [[1.0, 0.0], [0.0, 5e-9]]},
                x0=[0.1, 0.1],
                checks=[{"name": "rate_condition", "nu": 1.0}],
            ),
        )
        code = main(["check", "--config", str(p), "--out", str(tmp_path / "out")])
        assert "Traceback" not in capsys.readouterr().err
        assert code == 0
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert doc["split"] is None
        (cond,) = doc["report"]["conditions"]
        assert cond["name"] == "rate_condition"
        assert cond["verdict"] == "inconclusive"
        assert cond["estimates"]["reason"] == "no admissible split at the trap"

    def test_runs_on_K_report_minus_infinity(self, tmp_path, capsys):
        # no noise from a start with no stable component: every run keeps
        # distance exactly 0 to K, which is rate -inf, and each counts
        p = write_config(
            tmp_path,
            base_config(
                model={"kind": "linear", "H": [[1.0, 0.0], [0.0, -1.0]], "noise": "none"},
                x0=[0.1, 0.0],
                N=500,
                n_runs=4,
                diagnostics=[{"name": "manifold_rate"}],
            ),
        )
        code = main(["check", "--config", str(p), "--out", str(tmp_path / "out")])
        assert "Traceback" not in capsys.readouterr().err
        assert code == 0
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert doc["diagnostics"]["manifold_rate"] == {"median_rate": "-inf", "n_rates": 4}

    def test_every_run_blown_up_reports_no_rate(self, tmp_path, capsys):
        # H = 5 drives every run out of the region, and the limit allows it:
        # the diagnostics then see no run, which is no finite rate
        p = write_config(
            tmp_path,
            base_config(
                model={"kind": "linear", "H": [[5.0]]},
                N=2000,
                max_blowup_fraction=1.0,
                diagnostics=[{"name": "apt"}],
                output={"write_diagnostics": True},
            ),
        )
        code = main(["check", "--config", str(p), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert code == 0, err
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert doc["ensemble"]["blowup_count"] == 40
        apt = doc["diagnostics"]["apt"]
        assert apt["n_rates"] == 0
        assert apt["median_rate"] == "nan"  # canonical JSON spells NaN so
        # no run has diagnostic rows, so no CSV is written
        assert apt["csv_run"] is None
        assert not (tmp_path / "out" / "diagnostics").exists()

    @pytest.mark.parametrize("n_runs", [8, 40])
    def test_tail_noise_with_every_run_blown_up_is_inconclusive(self, tmp_path, capsys, n_runs):
        # diag(4, -1) at seed 3 drives every run out of the region, and the
        # limit allows it: tail_noise then has no run to average over
        p = write_config(
            tmp_path,
            base_config(
                model={"kind": "linear", "H": [[4.0, 0.0], [0.0, -1.0]]},
                x0=None,
                N=201,
                n_runs=n_runs,
                master_seed=3,
                max_blowup_fraction=1.0,
                checks=[{"name": "tail_noise"}],
            ),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["check", "--config", str(p), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert code == 0, err
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert doc["ensemble"]["blowup_count"] == n_runs
        (cond,) = doc["report"]["conditions"]
        assert cond["verdict"] == "inconclusive"
        assert cond["estimates"] == {"n_runs": 0, "reason": "too few runs"}

    def test_an_empty_check_list_is_inconclusive(self, tmp_path, capsys):
        # every run stays on the trap, yet no condition backs a verdict
        cfg = {
            "model": {"kind": "control", "which": "degenerate_noise"},
            "schedule": {"kind": "harmonic"},
            "N": 200,
            "n_runs": 40,
            "master_seed": 1,
            "theorem": "th5d",
            "checks": [],
        }
        p = write_config(tmp_path, cfg)
        assert main(["check", "--config", str(p), "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "near-trap fraction 1.0," in out
        assert "theorem: th5d    overall: inconclusive\n" in out

    def test_report_command_renders_summary(self, tmp_path, capsys):
        cfg = ExperimentConfig.from_dict(
            base_config(n_runs=4, checks=[{"name": "remainder"}])
        )
        run_experiment(cfg, out_dir=tmp_path)
        capsys.readouterr()
        assert main(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "config hash" in out
        assert "remainder_square_summable" in out

    def test_remainder_check_above_one_hundred_thousand_steps(self, tmp_path, capsys):
        # the remainder sum runs over every step, so a kept run past
        # N = 10^5 must still hold every step's pieces
        N = 100_001
        cfg = base_config(
            N=N, n_runs=1, checks=[{"name": "remainder"}], output={"trajectories": 1}
        )
        p = write_config(tmp_path, cfg)
        code = main(["check", "--config", str(p), "--out", str(tmp_path / "out")])
        assert code == 0, capsys.readouterr().err
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert doc["report"]["conditions"][0]["verdict"] == "pass"
        with open(tmp_path / "out" / "trajectories" / "run_0.csv") as fh:
            assert sum(1 for _ in fh) == N + 1  # header and one row per step

    @pytest.mark.parametrize(
        "extra",
        [
            {
                "model": {"kind": "linear", "H": [[1.0, 0.0], [0.0, -1.0]]},
                "x0": [0.1, 0.1],
                "checks": [{"name": "noise_excitation"}, {"name": "rate_condition", "nu": 1.0}],
                "diagnostics": [{"name": "apt", "T": 0.5}, {"name": "manifold_rate"}],
            },
            # c vanishes from step 50 on, so the rate window holds a ratio
            # of -inf, which summary.json spells as a string
            {
                "schedule": {
                    "gamma": {"kind": "power"},
                    "c": {"kind": "custom", "values": [1.0] * 50 + [0.0] * 350},
                },
                "rate_window": [10, 300],
            },
        ],
    )
    def test_check_prints_what_report_prints(self, tmp_path, capsys, extra):
        p = write_config(tmp_path, base_config(n_runs=8, **extra))
        code = main(["check", "--config", str(p), "--out", str(tmp_path / "out")])
        checked = capsys.readouterr()
        assert code == 0, checked.err
        assert main(["report", str(tmp_path / "out")]) == 0
        reported = capsys.readouterr()
        assert reported.err == ""
        assert checked.out == reported.out
        assert "config hash: " in checked.out and "rates: lambda_hat=" in checked.out

    def test_report_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "missing.json")]) == 1

    @pytest.mark.parametrize(
        "content",
        [
            None,
            [1, 2],
            {"schema_version": 1, "ensemble": {}, "rates": {"x": 1}},
            {},
            {"schema_version": True, "ensemble": {}},
            {"schema_version": 1, "ensemble": [1]},
        ],
        ids=[
            "summary",
            "list",
            "rates-without-lambda_hat",
            "empty-object",
            "bool-schema_version",
            "ensemble-not-an-object",
        ],
    )
    def test_report_renders_only_a_summary(self, tmp_path, capsys, content):
        p = tmp_path / "summary.json"
        if content is None:  # a real one
            run_experiment(ExperimentConfig.from_dict(base_config(n_runs=4)), out_dir=tmp_path)
        else:
            p.write_text(json.dumps(content))
        capsys.readouterr()
        code = main(["report", str(p)])
        out, err = capsys.readouterr()
        if content is None:
            assert (code, err) == (0, "")
            assert "config hash: " in out
        else:
            assert (code, out) == (1, "")
            assert err.startswith(f"error: {p}: not a trapcheck summary (")
            assert len(err.splitlines()) == 1

    def test_out_that_cannot_be_a_directory_fails_before_the_simulation(self, tmp_path, capsys):
        p = write_config(tmp_path, base_config(n_runs=4))
        taken = tmp_path / "taken"
        taken.write_text("")
        with mock.patch.object(engine, "monte_carlo") as simulate:
            for out in (taken, taken / "out"):
                code = main(["simulate", "--config", str(p), "--out", str(out)])
                err = capsys.readouterr().err
                assert code == 1
                assert err.startswith(f"error: {out}: cannot create the output directory: ")
                assert len(err.splitlines()) == 1
        simulate.assert_not_called()

    def test_stage_timings_in_meta_leave_the_body_stable(self, tmp_path, capsys):
        cfg = base_config(
            n_runs=4, checks=[{"name": "remainder"}], diagnostics=[{"name": "apt", "T": 0.5}]
        )
        p = write_config(tmp_path, cfg)
        bodies = []
        for sub in ("a", "b"):
            assert main(["check", "--config", str(p), "--out", str(tmp_path / sub)]) == 0
            doc = json.loads((tmp_path / sub / "summary.json").read_text())
            timings = doc.pop("meta")["timings_s"]
            assert set(timings) == {"simulate", "checks", "diagnostics", "io"}
            assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())
            bodies.append(canonical_json(doc))
        assert bodies[0] == bodies[1]
        capsys.readouterr()
        assert main(["report", str(tmp_path / "a")]) == 0
        assert "timings: " in capsys.readouterr().out

    def test_numeric_stack_in_meta_leaves_the_body_stable(self, tmp_path, monkeypatch):
        p = write_config(tmp_path, base_config(n_runs=4, checks=[{"name": "noise_excitation"}]))
        bodies = []
        for coretype in (None, "Prescott"):
            if coretype is None:
                monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
            else:
                monkeypatch.setenv("OPENBLAS_CORETYPE", coretype)
            out = tmp_path / str(coretype)
            main(["check", "--config", str(p), "--out", str(out)])
            doc = json.loads((out / "summary.json").read_text())
            meta = doc.pop("meta")
            assert meta["numpy"] == np.__version__ and meta["scipy"] == scipy.__version__
            assert meta["openblas_coretype"] == coretype
            bodies.append(canonical_json(doc))
        assert bodies[0] == bodies[1]

    def test_run_steps_per_s_in_meta_leaves_the_body_stable(self, tmp_path):
        # the throughput of the simulate stage varies between runs, the body
        # does not
        p = write_config(tmp_path, base_config(n_runs=6))
        bodies = []
        for cmd, workers in (("simulate", 1), ("simulate", 2), ("check", 1)):
            out = tmp_path / f"{cmd}{workers}"
            with mock.patch.object(concurrent.futures, "ProcessPoolExecutor", InProcessPool):
                main([cmd, "--config", str(p), "--out", str(out), "--workers", str(workers)])
            doc = json.loads((out / "summary.json").read_text())
            meta = doc.pop("meta")
            assert meta["run_steps_per_s"] == 400 * 6 / meta["timings_s"]["simulate"]
            bodies.append(canonical_json(doc))
        assert bodies[0] == bodies[1]

    def test_chunks_in_meta_leave_the_body_stable(self, tmp_path):
        # a capture with noise statistics keeps one batch at any worker
        # count; one without them pools, one chunk per worker
        noise = {"checks": [{"name": "noise_excitation"}, {"name": "tail_noise"}]}
        run_zero = {"checks": [{"name": "remainder"}], "output": {"trajectories": 1}}
        for extra, chunks in ((noise, (1, 1, 1)), (run_zero, (1, 2, 3))):
            p = write_config(tmp_path, base_config(n_runs=6, **extra))
            bodies = []
            for workers in (1, 2, 3):
                out = tmp_path / f"out{workers}"
                with mock.patch.object(concurrent.futures, "ProcessPoolExecutor",
                                       InProcessPool):
                    main(["check", "--config", str(p), "--out", str(out), "--workers",
                          str(workers)])
                doc = json.loads((out / "summary.json").read_text())
                meta = doc.pop("meta")
                assert (meta["workers"], meta["chunks"]) == (workers, chunks[workers - 1])
                bodies.append(canonical_json(doc))
            assert bodies[0] == bodies[1] == bodies[2]


def _tree(out: Path) -> dict:
    """Every file under ``out`` by its relative path, with its bytes, and
    every directory, as None."""
    return {
        p.relative_to(out).as_posix(): p.read_bytes() if p.is_file() else None
        for p in sorted(out.rglob("*"))
    }


_SADDLE_2D = {"model": {"kind": "linear", "H": [[1.0, 0.0], [0.0, -1.0]]}, "x0": [0.1, 0.1]}
_BOTH_DIAGNOSTICS = [{"name": "apt", "T": 0.5}, {"name": "manifold_rate"}]


class TestArtifacts:
    """``--out`` holds the files of the last run only, written once every
    check and diagnostic has finished, ``summary.json`` last."""

    def _config(self, tmp_path, name, **overrides):
        return write_config(tmp_path, base_config(**_SADDLE_2D, n_runs=6, **overrides), name)

    @pytest.mark.parametrize(
        "first, second, files",
        [
            (
                ("check", {"diagnostics": _BOTH_DIAGNOSTICS,
                           "output": {"trajectories": 3, "write_diagnostics": True}}),
                ("simulate", {"master_seed": 2, "output": {"trajectories": 1}}),
                ["summary.json", "trajectories/run_0.csv"],
            ),
            (
                ("check", {"diagnostics": [{"name": "apt", "T": 0.5}],
                           "output": {"trajectories": 2, "write_diagnostics": True}}),
                ("check", {"diagnostics": [{"name": "manifold_rate"}],
                           "output": {"write_diagnostics": True}}),
                ["diagnostics/manifold_rate.csv", "summary.json"],
            ),
            (
                ("check", {"diagnostics": _BOTH_DIAGNOSTICS,
                           "output": {"trajectories": 1, "write_diagnostics": True}}),
                ("check", {"diagnostics": _BOTH_DIAGNOSTICS}),
                ["summary.json"],
            ),
            (
                ("simulate", {}),
                ("check", {"diagnostics": [{"name": "apt", "T": 0.5}],
                           "output": {"trajectories": 2, "write_diagnostics": True}}),
                ["diagnostics/apt.csv", "summary.json", "trajectories/run_0.csv",
                 "trajectories/run_1.csv"],
            ),
        ],
        ids=["fewer-runs-no-diagnostics", "other-diagnostic", "no-csv", "more-files"],
    )
    def test_rerun_leaves_only_its_own_files(self, tmp_path, capsys, first, second, files):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        for i, (command, overrides) in enumerate((first, second)):
            p = self._config(tmp_path, f"{i}.json", **overrides)
            assert main([command, "--config", str(p), "--out", str(out)]) in (0, 2)
        assert main([command, "--config", str(p), "--out", str(fresh)]) in (0, 2)
        capsys.readouterr()
        tree = _tree(out)
        # no empty directory: each one is the parent of a file
        assert {k for k, v in tree.items() if v is None} == {
            Path(f).parent.as_posix() for f in files if "/" in f
        }
        assert sorted(k for k, v in tree.items() if v is not None) == files
        want = _tree(fresh)
        for name in files:
            if name != "summary.json":  # its meta differs
                assert tree[name] == want[name]
        docs = [json.loads(tree["summary.json"]), json.loads(want["summary.json"])]
        assert docs[0].pop("meta")["timings_s"]["io"] >= 0.0
        assert docs[0] == {k: v for k, v in docs[1].items() if k != "meta"}

    def test_files_trapcheck_does_not_write_survive_a_rerun(self, tmp_path, capsys):
        out = tmp_path / "out"
        mine = {
            "notes.txt": b"mine",
            "trajectories/run_0.txt": b"not a run",
            "trajectories/plot.csv": b"1,2",
            "diagnostics/other.csv": b"3,4",
            "summary.json.bak": b"{}",
        }
        for name, data in mine.items():
            (out / name).parent.mkdir(parents=True, exist_ok=True)
            (out / name).write_bytes(data)
        check = self._config(
            tmp_path,
            "check.json",
            diagnostics=_BOTH_DIAGNOSTICS,
            output={"trajectories": 2, "write_diagnostics": True},
        )
        simulate = self._config(tmp_path, "simulate.json")
        for p, command in ((check, "check"), (simulate, "simulate")):
            assert main([command, "--config", str(p), "--out", str(out)]) in (0, 2)
        capsys.readouterr()
        tree = _tree(out)
        assert {k: v for k, v in tree.items() if v is not None} == {
            **mine, "summary.json": tree["summary.json"]
        }

    def test_failure_after_a_diagnostic_leaves_out_as_it_was(self, tmp_path, capsys):
        out = tmp_path / "out"
        overrides = {
            "diagnostics": _BOTH_DIAGNOSTICS,
            "output": {"trajectories": 2, "write_diagnostics": True},
        }
        p = self._config(tmp_path, "config.json", **overrides)
        assert main(["check", "--config", str(p), "--out", str(out)]) in (0, 2)
        before = _tree(out)
        # another seed: every file the run would write differs
        q = self._config(tmp_path, "again.json", master_seed=9, **overrides)
        apt = mock.patch.object(
            flow, "ensemble_apt_deficit", wraps=flow.ensemble_apt_deficit
        )
        manifold = mock.patch.object(
            flow, "ensemble_manifold_rate", side_effect=TrapcheckError("no manifold")
        )
        capsys.readouterr()
        with apt as apt_ran, manifold:
            assert main(["check", "--config", str(q), "--out", str(out)]) == 1
        apt_ran.assert_called_once()
        assert capsys.readouterr().err == "error: no manifold\n"
        assert _tree(out) == before

    @pytest.mark.parametrize("earlier", [False, True], ids=["empty", "earlier-summary"])
    def test_a_write_that_fails_is_one_error_line(self, tmp_path, capsys, earlier):
        out = tmp_path / "out"
        if earlier:  # a run that wrote summary.json alone
            assert main(["simulate", "--config", str(self._config(tmp_path, "0.json")),
                         "--out", str(out)]) == 0
        out.mkdir(exist_ok=True)
        (out / "trajectories").write_text("in the way")
        before = _tree(out)
        p = self._config(
            tmp_path,
            "config.json",
            diagnostics=[{"name": "apt", "T": 0.5}],
            output={"trajectories": 1, "write_diagnostics": True},
        )
        capsys.readouterr()
        assert main(["check", "--config", str(p), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out}: cannot write the run's files: ")
        assert "trajectories" in err
        assert len(err.splitlines()) == 1
        assert _tree(out) == before

    def test_summary_is_written_last(self, tmp_path, capsys):
        out = tmp_path / "out"
        p = self._config(tmp_path, "config.json", output={"trajectories": 1})
        full = OSError(28, "No space left on device")
        with mock.patch.object(engine.Trajectory, "to_csv", side_effect=full):
            assert main(["simulate", "--config", str(p), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {out}: cannot write the run's files: {full}\n"
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("command", ["simulate", "report"])
    def test_a_file_that_is_not_utf8_is_one_error_line(self, tmp_path, capsys, command):
        p = tmp_path / "binary.json"
        p.write_bytes(b"\xff\xfe\x00")
        args = ["--config", str(p), "--out", str(tmp_path / "out")]
        assert main([command, *args] if command == "simulate" else [command, str(p)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {p}: ")
        assert "codec can't decode" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    #: Every run blows up, so the command fails after it made ``--out``.
    _BLOWN = {
        "model": {"kind": "linear", "H": [[4.0]]},
        "schedule": {"kind": "harmonic"},
        "N": 200,
        "n_runs": 8,
        "master_seed": 8,
    }

    @pytest.mark.parametrize("out", ["fresh", "a/b/out"])
    def test_a_failed_command_leaves_no_directory_it_made(self, tmp_path, capsys, out):
        p = write_config(tmp_path, self._BLOWN)
        assert main(["simulate", "--config", str(p), "--out", str(tmp_path / out)]) == 1
        assert capsys.readouterr().err == "error: 8/8 runs blew up (limit 50%)\n"
        assert [q.name for q in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("earlier", [False, True], ids=["empty", "earlier-run"])
    def test_a_failed_command_leaves_an_existing_out_as_it_was(self, tmp_path, capsys, earlier):
        out = tmp_path / "out"
        out.mkdir()
        if earlier:
            p = self._config(tmp_path, "0.json", output={"trajectories": 1})
            assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
            (out / "notes.txt").write_text("mine")
        before = _tree(out)
        p = write_config(tmp_path, self._BLOWN)
        capsys.readouterr()
        assert main(["simulate", "--config", str(p), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: 8/8 runs blew up (limit 50%)\n"
        assert out.is_dir() and _tree(out) == before


class TestFirstStepOnAVertex:
    """A reinforced walk whose first step has c_1 = 1 moves its occupation
    onto one vertex J, where H(v) = A_JJ: on a graph with a zero diagonal
    the config is refused before the simulation, at the schedule's path."""

    _POSITIVE_DIAGONAL = [[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]

    def _run(self, tmp_path, command, model, schedule):
        cfg = base_config(N=60, n_runs=4, master_seed=0, x0=None, model=model, schedule=schedule)
        p = write_config(tmp_path, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return main([command, "--config", str(p), "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("command", ["simulate", "check"])
    @pytest.mark.parametrize(
        "schedule, path",
        [
            ({"kind": "harmonic"}, "schedule"),
            ({"kind": "power", "gamma_scale": 0.5}, "schedule"),
            ({"gamma": {"kind": "const", "value": 0.5}, "c": {"kind": "power"}}, "schedule.c"),
        ],
        ids=["harmonic", "power", "explicit"],
    )
    @pytest.mark.parametrize("kind", ["vrrw_walk", "vrrw_meanfield"])
    def test_refused_at_the_schedule(self, tmp_path, capsys, kind, schedule, path, command):
        model = {"kind": kind, "d": 3, "alpha": 2.0}
        with mock.patch.object(engine, "monte_carlo") as simulate:
            assert self._run(tmp_path, command, model, schedule) == 1
        simulate.assert_not_called()
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: c_1 = 1 ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "graph, schedule",
        [
            ({"A": _POSITIVE_DIAGONAL}, {"kind": "harmonic"}),
            ({}, {"kind": "power", "gamma_scale": 0.999, "c_scale": 0.999}),
            ({}, {"kind": "power", "c_scale": 0.5}),
        ],
        ids=["positive-diagonal", "c_1-0.999", "gamma_1-1-c_1-0.5"],
    )
    @pytest.mark.parametrize("kind", ["vrrw_walk", "vrrw_meanfield"])
    def test_runs_otherwise(self, tmp_path, capsys, kind, graph, schedule):
        model = {"kind": kind, "d": 3, "alpha": 2.0, **graph}
        assert self._run(tmp_path, "simulate", model, schedule) == 0
        assert capsys.readouterr().err == ""
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert doc["ensemble"]["blowup_count"] == 0


class TestNoiseScaleAboveOne:
    """A reinforced walk with some c_n > 1 for n <= N would step past the
    jump's vertex, off the probability simplex: the config is refused before
    the simulation, at the schedule's path."""

    def _run(self, tmp_path, command, kind, schedule, N=60):
        model = {"kind": kind, "d": 3, "alpha": 2.0}
        cfg = base_config(N=N, n_runs=4, master_seed=0, x0=None, model=model, schedule=schedule)
        p = write_config(tmp_path, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return main([command, "--config", str(p), "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("command", ["simulate", "check"])
    @pytest.mark.parametrize(
        "schedule, line",
        [
            ({"kind": "power", "gamma_scale": 0.5, "c_scale": 1.5}, "schedule: c_1 = 1.5 > 1 "),
            ({"kind": "power", "c_scale": 1.0001}, "schedule: c_1 = 1.0001 > 1 "),
            ({"gamma": {"kind": "const", "value": 0.1},
              "c": {"kind": "custom", "values": [0.5] * 9 + [1.25] + [0.5] * 50}},
             "schedule.c: c_10 = 1.25 > 1 "),
        ],
        ids=["power", "power-1.0001", "explicit-c_10"],
    )
    @pytest.mark.parametrize("kind", ["vrrw_walk", "vrrw_meanfield"])
    def test_refused_at_the_schedule(self, tmp_path, capsys, kind, schedule, line, command):
        with mock.patch.object(engine, "monte_carlo") as simulate:
            assert self._run(tmp_path, command, kind, schedule) == 1
        simulate.assert_not_called()
        err = capsys.readouterr().err
        assert err.startswith(f"error: {line}") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["vrrw_walk", "vrrw_meanfield"])
    def test_a_scale_past_n_is_not_read(self, tmp_path, capsys, kind):
        schedule = {"gamma": {"kind": "const", "value": 0.1}, "horizon": 80,
                    "c": {"kind": "custom", "values": [0.5] * 60 + [1.25] * 20}}
        assert self._run(tmp_path, "simulate", kind, schedule) == 0
        assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# the contracts over random valid configs
# ---------------------------------------------------------------------------


@st.composite
def _valid_configs(draw):
    """A valid config of any model kind and schedule kind, with any checks
    and diagnostics, N 60-500 and 4-40 runs; it may still fail at run time
    (a blow-up, a window that does not fit the drift clock)."""
    model = draw(
        st.sampled_from(
            [
                {"kind": "linear", "H": [[1.0]]},
                {"kind": "linear", "H": [[1.0, 0.5], [0.2, -1.0]], "remainder": "inv_sqrt"},
                {"kind": "linear", "H": [[1.0, 0.0], [0.0, -1.0]], "noise": "stable_only"},
                {"kind": "synthetic"},
                {"kind": "synthetic", "mu": -2.0, "nu": 0.5, "dim": 3},
                {"kind": "vrrw_walk", "d": 3, "alpha": 2.0},
                {"kind": "vrrw_meanfield", "d": 3, "alpha": 1.5},
                {"kind": "control", "which": "degenerate_noise"},
                {"kind": "control", "which": "stable_only_noise"},
                {"kind": "control", "which": "bad_remainder"},
            ]
        )
    )
    schedules = [
        {"kind": "harmonic", "offset": draw(st.sampled_from([0.0, 4.0]))},
        {"kind": "power", "gamma_exp": 0.8, "c_exp": draw(st.sampled_from([0.6, 1.0]))},
        {"kind": "geometric", "gamma_ratio": 0.9, "c_ratio": draw(st.sampled_from([0.5, 0.9]))},
    ]
    if model["kind"].startswith("vrrw_"):
        schedules.append({"kind": "natural"})
    N = draw(st.integers(60, 500))
    checks = []
    for name in draw(st.lists(st.sampled_from(sorted(_CHECKS)), max_size=4, unique=True)):
        c = {"name": name}
        if name == "noise_excitation":
            c["k"] = draw(st.integers(1, 3))
        elif name == "remainder":
            c["mode"] = draw(st.sampled_from(["square_summable", "split_r"]))
        elif name == "drift_sign":
            c["mode"] = draw(st.sampled_from(["nonneg", "coercive"]))
        if name == "drift_sign":
            c["adapted"] = draw(st.booleans())
        if "nu" in _CHECKS[name].params and draw(st.booleans()):
            c["nu"] = 1.0
        if "window" in _CHECKS[name].params and draw(st.booleans()):
            lo = draw(st.integers(0, N - 1))
            c["window"] = [lo, draw(st.integers(lo + 1, N))]
        checks.append(c)
    diagnostics = draw(
        st.lists(
            st.sampled_from([{"name": "apt", "T": 0.5}, {"name": "apt", "T": 2.0},
                             {"name": "manifold_rate"}]),
            max_size=2,
        )
    )
    return {
        "model": model,
        "schedule": draw(st.sampled_from(schedules)),
        "N": N,
        "n_runs": draw(st.integers(4, 40)),
        "master_seed": draw(st.integers(0, 2**32)),
        "checks": checks,
        "diagnostics": diagnostics,
        "theorem": draw(st.sampled_from([None, *hypotheses.THEOREM_IDS])),
        "max_blowup_fraction": draw(st.sampled_from([0.5, 1.0])),
        "output": {
            "trajectories": draw(st.integers(0, 2)),
            "write_diagnostics": draw(st.booleans()),
        },
    }


def _pooled_case(model, schedule):
    """A config of ``model`` whose capture still pools (it keeps run 0 and
    no noise statistics), so each chunk's model crosses ``pickle``: an
    explicit case for a model kind the draw may miss."""
    return {
        "model": model, "schedule": schedule, "N": 200, "n_runs": 8, "master_seed": 3,
        "checks": [{"name": "remainder"}], "diagnostics": [], "theorem": None,
        "max_blowup_fraction": 1.0, "output": {"trajectories": 1, "write_diagnostics": False},
    }


def _body(out: Path):
    """:func:`_tree` of ``out`` with ``summary.json`` parsed and its ``meta``
    dropped, or None when there is no ``out``."""
    if not out.exists():
        return None
    tree = _tree(out)
    doc = json.loads(tree["summary.json"])
    del doc["meta"]
    return {**tree, "summary.json": doc}


class TestBlownRunStatistics:
    #: A saddle whose runs blow up between steps 2,000 and 2,500: the noise
    #: checks count each run at the steps before its blow-up, and a
    #: tail_noise over the whole run has fewer than MIN_RUNS runs at its end.
    _CONFIG = base_config(
        model={"kind": "linear", "H": [[2.0, 0.5], [0.0, -1.0]]},
        x0=[0.0, 0.0],
        N=2500,
        n_runs=60,
        master_seed=3,
        max_blowup_fraction=1.0,
        checks=[
            {"name": "noise_excitation", "window": [100, 2100]},
            {"name": "jump_moments", "window": [100, 2100]},
            {"name": "tail_noise", "window": [200, 2100]},
            {"name": "tail_noise"},
        ],
    )

    def test_bodies_equal_at_any_worker_count(self, tmp_path, capsys):
        p = write_config(tmp_path, self._CONFIG)
        bodies = []
        for workers in (1, 2, 3):
            out = tmp_path / f"out{workers}"
            argv = ["check", "--config", str(p), "--out", str(out), "--workers", str(workers)]
            assert main(argv) == 0
            doc = json.loads((out / "summary.json").read_text())
            del doc["meta"]
            bodies.append(canonical_json(doc))
        capsys.readouterr()
        assert bodies[0] == bodies[1] == bodies[2]
        doc = json.loads(bodies[0])
        assert 0 < doc["ensemble"]["blowup_count"] < 60
        conds = doc["report"]["conditions"]
        assert [c["verdict"] for c in conds] == ["pass", "pass", "pass", "inconclusive"]
        assert conds[-1]["estimates"]["n_runs"] < hypotheses.MIN_RUNS


class TestValidConfigs:
    """The CLI's contracts on valid configs: an exit code in {0, 1, 2}; exit
    1 with one ``error: `` line and no ``--out`` left; no traceback and no
    warning; the same files at any worker count; run 0 as ``engine.run``
    gives it.  Workers run in this process, so no process starts, but each
    chunk's model and result cross ``pickle`` as in a real pool."""

    @settings(max_examples=60, deadline=None)
    @given(cfg=_valid_configs(), command=st.sampled_from(["check", "simulate"]))
    @example(cfg=_pooled_case({"kind": "vrrw_walk", "d": 3, "alpha": 2.0}, {"kind": "natural"}),
             command="check")
    @example(cfg=_pooled_case({"kind": "control", "which": "stable_only_noise"},
                              {"kind": "harmonic"}), command="check")
    def test_contracts_hold(self, cfg, command):
        with (
            tempfile.TemporaryDirectory() as tmp,
            mock.patch.object(concurrent.futures, "ProcessPoolExecutor", InProcessPool),
        ):
            tmp = Path(tmp)
            p = write_config(tmp, cfg)
            results = []
            for workers in (1, 2, 3):
                out, err = tmp / f"out{workers}", io.StringIO()
                argv = [command, "--config", str(p), "--out", str(out), "--workers", str(workers)]
                with (
                    warnings.catch_warnings(record=True) as caught,
                    contextlib.redirect_stderr(err),
                    contextlib.redirect_stdout(io.StringIO()),
                ):
                    warnings.simplefilter("always")
                    code = main(argv)
                assert caught == []
                err = err.getvalue()
                assert code in (0, 1, 2)
                if code == 1:
                    assert err.startswith("error: ") and err.count("\n") == 1
                    assert not out.exists()
                else:
                    assert err == ""
                results.append((code, err, _body(out)))
            assert results[1] == results[0] and results[2] == results[0]
            if code == 1 or not cfg["output"]["trajectories"]:
                return
            config = ExperimentConfig.from_dict(cfg)
            model = _build_model(config.model)
            schedule = _build_schedule(config.schedule, model)
            x0 = cli._x0_of(config, model)
            kept = tmp / "out1" / "trajectories" / "run_0.csv"
            try:
                traj = engine.run(model, schedule, x0, config.N, config.master_seed)
            except BlowUpError:
                assert not kept.exists()  # a blown run is listed, not written
            else:
                traj.to_csv(tmp / "run_0.csv")
                assert kept.read_bytes() == (tmp / "run_0.csv").read_bytes()


class TestConfigErrors:
    """Malformed configs end in one ``error: <path>: ...`` line and exit 1."""

    @pytest.mark.parametrize(
        "override, argv, path",
        [
            ({"N": "abc"}, [], "N"),
            ({"N": 0}, [], "N"),
            ({"n_runs": 0}, [], "n_runs"),
            ({"checks": ["remainder"]}, [], "checks[0]"),
            ({"master_seed": -1}, [], "master_seed"),
            ({}, ["--workers", "0"], "workers"),
            ({"chekcs": [{"name": "remainder"}]}, [], "chekcs"),
            ({"x0": [math.nan]}, [], "x0[0]"),
            ({"near_trap_radius": 10**400}, [], "near_trap_radius"),
        ],
    )
    def test_bad_field_exits_one_with_dotted_path(self, tmp_path, capsys, override, argv, path):
        p = write_config(tmp_path, base_config(**override))
        code = main(["check", "--config", str(p), "--out", str(tmp_path / "out"), *argv])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {path}: ")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "override, path",
        [
            ({"checks": [{"name": "noise_excitation", "k": "x"}]}, "checks[0].k"),
            ({"checks": [{"name": "noise_excitation", "k": 0}]}, "checks[0].k"),
            ({"checks": [{"name": "noise_excitation", "a": 2.0}]}, "checks[0].a"),
            ({"checks": [{"name": "noise_excitation", "threshold": -1.0}]}, "checks[0].threshold"),
            ({"checks": [{"name": "jump_moments", "a": 2.0}]}, "checks[0].a"),
            ({"checks": [{"name": "remainder", "mode": "bogus"}]}, "checks[0].mode"),
            ({"checks": [{"name": "remainder", "nu": 0}]}, "checks[0].nu"),
            ({"checks": [{"name": "drift_sign", "rho": -1}]}, "checks[0].rho"),
            ({"checks": [{"name": "drift_sign", "beta": "x"}]}, "checks[0].beta"),
            ({"checks": [{"name": "rate_condition", "nu": "x"}]}, "checks[0].nu"),
            ({"checks": [{"name": "tail_noise", "nu": -2.0}]}, "checks[0].nu"),
            ({"diagnostics": [{"name": "apt", "T": "abc"}]}, "diagnostics[0].T"),
            ({"diagnostics": [{"name": "apt", "n_restarts": 0}]}, "diagnostics[0].n_restarts"),
            ({"diagnostics": [{"name": "apt", "normalization": "x"}]}, "diagnostics[0].normalization"),
            ({"schedule": {"kind": "harmonic", "horizon": "x"}}, "schedule.horizon"),
            ({"schedule": {"kind": "harmonic", "horizon": 1.5}}, "schedule.horizon"),
            ({"checks": [{"name": "noise_excitation", "treshold": 0.5}]}, "checks[0].treshold"),
            ({"checks": [{"name": "remainder", "k": 1}]}, "checks[0].k"),
            ({"checks": [{"name": "drift_sign", "adapted": "no"}]}, "checks[0].adapted"),
            ({"diagnostics": [{"name": "manifold_rate", "T": 1.0}]}, "diagnostics[0].T"),
            ({"diagnostics": [{"name": "apt", "window": [1, 10]}]}, "diagnostics[0].window"),
            ({"output": {"trajectores": 1}}, "output.trajectores"),
            ({"output": {"write_diagnostics": "yes"}}, "output.write_diagnostics"),
        ],
    )
    def test_bad_nested_parameter_exits_one(self, tmp_path, capsys, override, path):
        p = write_config(tmp_path, base_config(n_runs=4, **override))
        code = main(["check", "--config", str(p), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {path}: ")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "override, path",
        [
            ({"N": 1e30}, "N"),
            ({"N": 10**18}, "N"),
            ({"N": 2**63 - 1}, "N"),
            ({"n_runs": 1e30}, "n_runs"),
            ({"n_runs": 2**63 - 1}, "n_runs"),
            ({"schedule": {"kind": "harmonic", "horizon": 1e30}}, "schedule.horizon"),
            ({"schedule": {"kind": "harmonic", "horizon": 2**53 + 1}}, "schedule.horizon"),
        ],
    )
    def test_oversized_size_exits_one(self, tmp_path, capsys, override, path):
        # past 2^53 the float64 step numbers are no longer exact
        p = write_config(tmp_path, base_config(**{"n_runs": 4, **override}))
        with mock.patch.object(engine, "monte_carlo") as simulate:
            code = main(["simulate", "--config", str(p), "--out", str(tmp_path / "out")])
        simulate.assert_not_called()
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: must be <= {2**53}, got ")
        assert len(err.splitlines()) == 1

    def test_largest_size_is_accepted(self):
        cfg = ExperimentConfig.from_dict(base_config(N=2**53, n_runs=2**53))
        assert cfg.N == cfg.n_runs == cfg.schedule["horizon"] == 2**53

    def test_out_of_memory_exits_one(self, tmp_path, capsys):
        p = write_config(tmp_path, base_config(n_runs=4))
        oom = MemoryError("Unable to allocate 7.1 EiB for an array with shape (10**18,)")
        with mock.patch.object(engine, "monte_carlo", side_effect=oom):
            code = main(["simulate", "--config", str(p), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: out of memory: {oom}\n"

    @pytest.mark.parametrize(
        "check, key",
        [({"name": "rate_condition", "window": [1, 10]}, "window"),
         ({"name": "jump_moments", "k": 3}, "k")],
        ids=["rate_condition-window", "jump_moments-k"],
    )
    def test_field_a_check_does_not_read_is_unknown(self, tmp_path, capsys, check, key):
        p = write_config(tmp_path, base_config(n_runs=4, checks=[check]))
        with mock.patch.object(engine, "monte_carlo") as simulate:
            code = main(["check", "--config", str(p), "--out", str(tmp_path / "out")])
        simulate.assert_not_called()
        assert code == 1
        assert capsys.readouterr().err == f"error: checks[0].{key}: unknown field\n"

    @pytest.mark.parametrize(
        "where, spec, path",
        [
            ("model", {"kind": "synthetic", "mu": None}, "model.mu"),
            ("model", {"kind": "vrrw_meanfield", "d": None, "alpha": 2.0}, "model.d"),
            ("model", {"kind": "vrrw_meanfield", "d": 3, "alpha": 2.0, "initial_counts": 5},
             "model.initial_counts"),
            ("model", {"kind": "linear", "H": [[1.0]], "unstable_dims": [1]}, "model.unstable_dims"),
            ("model", {"kind": "vrrw_walk", "d": 3, "alpha": 2.0, "start_vertex": None},
             "model.start_vertex"),
            ("model", {"kind": "linear", "H": {"a": 1}}, "model.H"),
            ("schedule", {"kind": "power", "gamma_exp": None}, "schedule.gamma_exp"),
            ("schedule", {"kind": "harmonic", "offset": "x"}, "schedule.offset"),
            ("schedule", {"kind": "geometric", "c_ratio": -1}, "schedule.c_ratio"),
            ("model", {"kind": "linear", "noize": "none"}, "model.noize"),
            ("model", {"kind": "linear", "id": "mine"}, "model.id"),
            ("model", {"kind": "vrrw_meanfield", "d": 3, "alpha": 2.0, "start_vertex": 1},
             "model.start_vertex"),
            ("model", {"kind": "vrrw_meanfield", "d": 3, "alpha": "2"}, "model.alpha"),
            ("model", {"kind": "synthetic", "mu": "-2"}, "model.mu"),
            ("model", {"kind": "synthetic", "nu": True}, "model.nu"),
            ("model", {"kind": "vrrw_walk", "d": 3, "alpha": 2.0, "initial_counts": [1.5, 1, 1]},
             "model.initial_counts[0]"),
            ("model", {"kind": "synthetic", "mu": 1.0}, "model"),
            ("schedule", {"kind": "harmonic", "ofset": 5}, "schedule.ofset"),
            ("schedule", {"kind": "harmonic", "gamma_exp": 0.7}, "schedule.gamma_exp"),
            ("schedule", {"kind": "harmonic", "offset": True}, "schedule.offset"),
            ("schedule", {"kind": "harmonic", "offset": "5"}, "schedule.offset"),
            ("schedule", {"kind": "natural", "offset": 5}, "schedule.offset"),
            ("schedule", {"kind": "harmonic", "horizon": None}, "schedule.horizon"),
            ("schedule", {"kind": "nope"}, "schedule.kind"),
            ("schedule", {"gamma": {"kind": "power", "exponnent": 1.0}, "c": {"kind": "power"}},
             "schedule.gamma.exponnent"),
            ("schedule", {"gamma": {"kind": "power"}}, "schedule.c"),
            ("schedule", {"gamma": {"kind": "const"}, "c": {"kind": "custom"}},
             "schedule.c.values"),
        ],
        ids=[
            "mu-null", "d-null", "initial_counts-int", "unstable_dims-list",
            "start_vertex-null", "H-object", "gamma_exp-null", "offset-string",
            "c_ratio-negative", "noize-unknown", "id-unknown", "start_vertex-on-meanfield",
            "alpha-string", "mu-string", "nu-bool", "initial_counts-fractional",
            "mu-positive", "ofset-unknown", "gamma_exp-on-harmonic", "offset-bool",
            "offset-numeric-string", "offset-on-natural", "horizon-null", "kind-unknown",
            "exponnent-unknown", "c-missing", "values-missing",
        ],
    )
    def test_bad_model_or_schedule_parameter_exits_one(
        self, tmp_path, capsys, where, spec, path
    ):
        p = write_config(tmp_path, base_config(n_runs=4, **{where: spec}))
        code = main(["simulate", "--config", str(p), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {path}: ")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "spec, expected",
        [
            (
                {"kind": "vrrw_meanfield", "d": 3.7, "alpha": 2.0},
                "error: model.d: must be an integer, got 3.7\n",
            ),
            (
                {"kind": "linear", "H": [[1.0]], "unstable_dims": 1.9},
                "error: model.unstable_dims: must be an integer, got 1.9\n",
            ),
            (
                {"kind": "vrrw_meanfield", "d": 3, "alpha": 2.0, "graph": "custom"},
                "error: model.graph: unknown field\n",
            ),
            (
                {"kind": "vrrw_walk", "d": 3},
                "error: model.alpha: required field is missing\n",
            ),
        ],
        ids=["d-fractional", "unstable_dims-fractional", "graph-unknown", "alpha-missing"],
    )
    def test_model_field_error_names_the_field(self, tmp_path, capsys, spec, expected):
        p = write_config(tmp_path, base_config(n_runs=4, model=spec))
        code = main(["simulate", "--config", str(p), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "out").exists()

    _PARAMS = [("checks", name, key) for name, check in _CHECKS.items() for key in check.params]
    _PARAMS += [("diagnostics", name, key) for name, dg in _DIAGNOSTICS.items() for key in dg.params]
    _NESTED = [("model", kind, key) for kind, keys in _MODEL_PARAMS.items() for key in keys]
    _NESTED += [
        ("schedule", kind, key)
        for kind, keys in _SCHEDULE_PARAMS.items()
        for key in (*keys, "horizon")
    ]
    _NESTED += [("sequence", kind, key) for kind, keys in _SEQUENCE_PARAMS.items() for key in keys]

    @settings(max_examples=100, deadline=None)
    @given(
        param=st.sampled_from(_PARAMS + _NESTED),
        value=st.deferred(lambda: TestConfigErrors._VALUES),
    )
    # m(t) spreads over 4e-221 on the rate window: too little for polyfit
    @example(param=("sequence", "geometric", "scale"), value=4.390753739613711e-218)
    # m(t) is a few subnormals: log(alpha) / m overflows
    @example(param=("sequence", "power", "scale"), value=5e-324)
    def test_swapped_parameter_never_gives_a_traceback(self, param, value):
        where, name, key = param
        if where in ("checks", "diagnostics"):
            cfg = base_config(N=60, n_runs=4, **{where: [{"name": name, key: value}]})
        else:
            cfg = swapped(base_config(N=60, n_runs=4), param, value)
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            p = write_config(Path(tmp), cfg)
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["check", "--config", str(p), "--out", str(Path(tmp) / "out")])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert err.getvalue().startswith("error: ")

    _VALUES = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 3),
        st.floats(-3, 3),
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.text(max_size=4),
        st.lists(st.integers(-3, 3), max_size=3),
        st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
    )

    @settings(max_examples=100, deadline=None)
    @given(
        command=st.sampled_from(["simulate", "check"]),
        key=st.sampled_from([(key,) for key in _CONFIG_PARAMS] + _NESTED),
        value=_VALUES,
    )
    # the drift clock ends at 1.17, before the apt window T = 1 fits anywhere
    @example(command="check", key=("schedule", "power", "gamma_scale"), value=0.25)
    def test_swapped_field_never_gives_a_traceback(self, command, key, value):
        cfg = base_config(
            N=60,
            n_runs=4,
            checks=[{"name": "remainder"}, {"name": "noise_excitation"}],
            diagnostics=[{"name": "apt"}],
        )
        if len(key) == 1:
            cfg[key[0]] = value
        else:
            cfg = swapped(cfg, key, value)
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            p = write_config(Path(tmp), cfg)
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--config", str(p), "--out", str(Path(tmp) / "out")])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert err.getvalue().startswith("error: ")


def _frozen_from_dict(cfg):
    """``ExperimentConfig.from_dict`` as it read the top level by hand,
    before ``_CONFIG_PARAMS``; the table-driven parser must agree with it."""
    fields = (
        "model", "schedule", "N", "n_runs", "master_seed", "x0", "checks", "diagnostics",
        "theorem", "rate_window", "near_trap_radius", "max_blowup_fraction", "output",
    )
    if not isinstance(cfg, dict):
        raise ConfigError("must be a JSON object", "config")
    cli._known(cfg, fields, "")
    for key in ("model", "schedule", "N", "n_runs", "master_seed"):
        if key not in cfg:
            raise ConfigError("missing required field", key)
    N = cli._integer(cfg["N"], "N", lo=1)
    n_runs = cli._integer(cfg["n_runs"], "n_runs", lo=1)
    master_seed = cli._integer(cfg["master_seed"], "master_seed", lo=0)
    model = cli._entry(cfg["model"], "model", cli._MODEL_PARAMS, "model kind", key="kind")
    value = cfg["schedule"]
    if "gamma" in cli._typed(value, dict, "schedule") or "c" in value:
        spec = {s: (cli._sequence, ...) for s in ("gamma", "c")}
        schedule = cli._fields(value, spec, "schedule", ("horizon",))
    else:
        schedule = cli._entry(
            value, "schedule", cli._SCHEDULE_PARAMS, "schedule kind", "kind", ("horizon",)
        )
    schedule["horizon"] = cli._integer(schedule.get("horizon", N), "schedule.horizon", lo=N)
    if schedule.get("kind") == "natural" and not model["kind"].startswith("vrrw_"):
        raise ConfigError(f"model {model['kind']} has no natural schedule", "schedule.kind")
    x0 = None if cfg.get("x0") is None else cli._array_of(cli._finite)(cfg["x0"], "x0")
    checks, tables = [], {name: check.params for name, check in _CHECKS.items()}
    for i, c in enumerate(cli._typed(cfg.get("checks", []), cli._ARRAY, "checks")):
        c = cli._entry(c, f"checks[{i}]", tables, "check")
        if c.get("window") is not None:
            c["window"] = cli._window(c["window"], 0, N, f"checks[{i}].window")
        checks.append(c)
    diag_tables = {name: dg.params for name, dg in _DIAGNOSTICS.items()}
    diags = tuple(
        cli._entry(dg, f"diagnostics[{i}]", diag_tables, "diagnostic")
        for i, dg in enumerate(cli._typed(cfg.get("diagnostics", []), cli._ARRAY, "diagnostics"))
    )
    theorem = cfg.get("theorem")
    if theorem is not None and theorem not in hypotheses.THEOREM_IDS:
        raise ConfigError(f"unknown theorem id {theorem!r}", "theorem")
    rw = cfg.get("rate_window")
    if rw is not None:
        rw = cli._window(rw, 1, N, "rate_window")
    radius = cli._positive(cfg.get("near_trap_radius", 1e-2), "near_trap_radius")
    max_blowup = cfg.get("max_blowup_fraction", 0.5)
    if isinstance(max_blowup, bool) or not isinstance(max_blowup, (int, float)):
        raise ConfigError(f"must be a number, got {max_blowup!r}", "max_blowup_fraction")
    if not 0 <= max_blowup <= 1:
        raise ConfigError(f"must lie in [0, 1], got {max_blowup!r}", "max_blowup_fraction")
    output = cli._typed(cfg.get("output", {}), dict, "output")
    return ExperimentConfig(
        model=model,
        schedule=schedule,
        N=N,
        n_runs=n_runs,
        master_seed=master_seed,
        x0=x0,
        checks=tuple(checks),
        diagnostics=diags,
        theorem=theorem,
        rate_window=rw,
        near_trap_radius=radius,
        max_blowup_fraction=float(max_blowup),
        output=cli._fields(output, cli._OUTPUT_PARAMS, "output"),
        raw=dict(cfg),
    )


#: Valid models, each with a schedule it may run on.
_PARSER_MODELS = [
    ({"kind": "linear"}, {"kind": "harmonic"}),
    ({"kind": "linear", "H": [[1, 0], [0, -1]], "noise": "none"}, {"kind": "power", "c_exp": 0.7}),
    ({"kind": "synthetic", "mu": -2.0}, {"kind": "geometric"}),
    ({"kind": "vrrw_meanfield", "d": 3, "alpha": 2.0}, {"kind": "natural"}),
    ({"kind": "vrrw_walk", "d": 3, "alpha": 2, "start_vertex": 1}, {"kind": "natural"}),
    (
        {"kind": "control", "which": "bad_remainder"},
        {"gamma": {"kind": "power"}, "c": {"kind": "const", "value": 0.5}},
    ),
]


@st.composite
def _parser_configs(draw):
    """A valid config that may hold every top-level field, or one with a
    single field swapped, deleted or added, or not an object at all."""
    model, schedule = copy.deepcopy(draw(st.sampled_from(_PARSER_MODELS)))
    N = draw(st.integers(1, 500))
    if draw(st.booleans()):
        schedule["horizon"] = N + draw(st.integers(0, 10))
    cfg = {
        "model": model,
        "schedule": schedule,
        "N": draw(st.sampled_from([N, float(N)])),
        "n_runs": draw(st.integers(1, 5)),
        "master_seed": draw(st.integers(0, 2**32)),
    }

    def window(lo):
        a = draw(st.integers(lo, N - 1))
        return [a, draw(st.integers(a + 1, N))]

    optional = {
        "x0": st.none() | st.lists(st.floats(-3, 3), max_size=3),
        "checks": st.lists(
            st.sampled_from(sorted(_CHECKS)).map(lambda name: {"name": name}), max_size=4
        ),
        "diagnostics": st.lists(
            st.sampled_from([{"name": "apt", "T": 2.0}, {"name": "manifold_rate"}]), max_size=2
        ),
        "theorem": st.sampled_from([None, *hypotheses.THEOREM_IDS]),
        "rate_window": st.none() if N < 2 else st.just(None) | st.builds(lambda: window(1)),
        "near_trap_radius": st.floats(1e-3, 1.0),
        "max_blowup_fraction": st.sampled_from([0, 0.25, 1]),
        "output": st.fixed_dictionaries(
            {},
            optional={
                "dir": st.just("out"),
                "trajectories": st.integers(0, 3),
                "write_diagnostics": st.booleans(),
            },
        ),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            cfg[key] = draw(values)
    for c in cfg.get("checks", ()):
        if "window" in _CHECKS[c["name"]].params and draw(st.booleans()):
            c["window"] = window(0)

    bad = TestConfigErrors._VALUES
    change = draw(st.sampled_from(["none", "swap", "delete", "add", "nested", "whole"]))
    if change == "swap":
        cfg[draw(st.sampled_from(sorted(_CONFIG_PARAMS)))] = draw(bad)
    elif change == "delete":
        del cfg[draw(st.sampled_from(sorted(cfg)))]
    elif change == "add":
        cfg[draw(st.sampled_from(["chekcs", "seed", "", "outputs"]))] = draw(bad)
    elif change == "nested":
        objs = [cfg["model"], cfg["schedule"], cfg.get("output", {}), *cfg.get("checks", ())]
        obj = draw(st.sampled_from(objs))
        obj[draw(st.sampled_from([*obj, "bogus"]))] = draw(bad)
    elif change == "whole":
        cfg = draw(bad)
    return cfg


class TestOneParser:
    @settings(max_examples=300, deadline=None)
    @given(cfg=_parser_configs())
    @example(cfg=[1, 2])
    @example(cfg={k: v for k, v in base_config().items() if k != "master_seed"})
    @example(cfg=base_config(N=0))
    @example(cfg=base_config(theorem="th99"))
    @example(cfg=base_config(max_blowup_fraction=2))
    @example(cfg=base_config(schedule={"kind": "harmonic", "horizon": 100}))
    @example(cfg=base_config(model={"kind": "synthetic"}, schedule={"kind": "natural"}))
    def test_table_parser_equals_the_frozen_one(self, cfg):
        outcomes = []
        for parse in (_frozen_from_dict, ExperimentConfig.from_dict):
            try:
                outcomes.append(parse(copy.deepcopy(cfg)))
            except ConfigError as exc:
                outcomes.append(exc.path)
        assert outcomes[0] == outcomes[1]


#: A valid object of each kind that needs more than its ``kind``.
_VALID = {
    ("model", "vrrw_walk"): {"d": 3, "alpha": 2.0},
    ("model", "vrrw_meanfield"): {"d": 3, "alpha": 2.0},
    ("model", "control"): {"which": "bad_remainder"},
    ("sequence", "custom"): {"values": [0.5] * 60},
}


def swapped(cfg: dict, target: tuple, value) -> dict:
    """``cfg`` (default start) with ``value`` at ``key`` of a valid ``kind``
    object, for a ``(where, kind, key)`` target: ``where`` is ``model``,
    ``schedule`` or ``sequence`` (the explicit schedule's ``gamma``).  A
    reinforced walk runs on its natural schedule: under the harmonic one
    the first step puts every run on a vertex, where the walk's drift is
    undefined."""
    where, kind, key = target
    obj = {"kind": kind, **_VALID.get((where, kind), {}), key: value}
    cfg = dict(cfg, x0=None)
    if where == "model":
        cfg["model"] = obj
        if kind.startswith("vrrw_"):
            cfg["schedule"] = {"kind": "natural"}
    elif where == "schedule":
        cfg["schedule"] = obj
        if kind == "natural":
            cfg["model"] = {"kind": "vrrw_meanfield", "d": 3, "alpha": 2.0}
    else:
        cfg["schedule"] = {"gamma": obj, "c": {"kind": "power"}}
    return cfg


class TestConfigFormat:
    """Every config the project documents or benchmarks parses."""

    def test_readme_config_parses(self, tmp_path):
        readme = (REPO / "README.md").read_text()
        block = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
        cfg = ExperimentConfig.from_dict(block)
        assert cfg.model["kind"] == "vrrw_meanfield"
        # and it runs, checks included, at a smaller size
        small = dict(block, N=5000, n_runs=60, rate_window=[100, 5000])
        code, _ = run_experiment(ExperimentConfig.from_dict(small), out_dir=tmp_path)
        assert code == 0

    @pytest.mark.parametrize("size", ["full", "smoke"])
    def test_benchmark_configs_parse(self, size):
        workloads = runpy.run_path(str(REPO / "perfbench" / "workloads.py"))
        for w in workloads["WORKLOADS"].values():
            cfg = ExperimentConfig.from_dict(w.config(workloads["DEFAULT_SEED"], size))
            assert cfg.schedule["horizon"] == cfg.N

    def test_given_graph_is_used(self):
        A = [[5.0, 2.0, 2.0], [2.0, 5.0, 2.0], [2.0, 2.0, 5.0]]
        cfg = ExperimentConfig.from_dict(
            base_config(model={"kind": "vrrw_meanfield", "d": 3, "alpha": 2.0, "A": A})
        )
        np.testing.assert_array_equal(_build_model(cfg.model).cfg.A, A)
        cfg = ExperimentConfig.from_dict(
            base_config(model={"kind": "vrrw_meanfield", "d": 3, "alpha": 2.0})
        )
        np.testing.assert_array_equal(_build_model(cfg.model).cfg.A, np.ones((3, 3)) - np.eye(3))


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "trapcheck", "spectral", "[[1,0],[0,-2]]"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert "classification=unstable_hyperbolic" in proc.stdout
    assert proc.stderr == ""
