"""Tests for the config layer, canonical JSON output, and the CLI commands."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapcheck import engine
from trapcheck.cli import (
    _CHECK_PARAMS,
    _DIAGNOSTIC_PARAMS,
    _FIELDS,
    ExperimentConfig,
    _build_model,
    _build_schedule,
    _diag_state_grid,
    canonical_json,
    config_hash,
    main,
    run_experiment,
)
from trapcheck.errors import ConfigError
from trapcheck.flow import apt_deficit, time_change


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

    def test_config_hash_is_order_insensitive(self):
        h1 = config_hash({"a": 1, "b": [1, 2], "c": {"x": 0.5}})
        h2 = config_hash({"c": {"x": 0.5}, "b": [1, 2], "a": 1})
        assert h1 == h2
        assert len(h1) == 64
        assert config_hash({"a": 2}) != config_hash({"a": 1})


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
        with pytest.raises(ConfigError, match="nu"):
            run_experiment(cfg, out_dir=tmp_path)

    def test_x0_dimension_checked(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            base_config(
                model={"kind": "linear", "H": [[1.0, 0.0], [0.0, -1.0]]}, n_runs=4
            )
        )
        with pytest.raises(ConfigError) as err:
            run_experiment(cfg, out_dir=tmp_path)
        assert err.value.path == "x0"

    def test_horizon_must_cover_n(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            base_config(schedule={"kind": "harmonic", "horizon": 100}, n_runs=4)
        )
        with pytest.raises(ConfigError) as err:
            run_experiment(cfg, out_dir=tmp_path)
        assert err.value.path == "schedule.horizon"

    def test_unknown_model_kind(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config(model={"kind": "pendulum"}))
        with pytest.raises(ConfigError) as err:
            run_experiment(cfg, out_dir=tmp_path)
        assert err.value.path == "model.kind"

    def test_unknown_control_name(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            base_config(model={"kind": "control", "which": "nope"})
        )
        with pytest.raises(ConfigError) as err:
            run_experiment(cfg, out_dir=tmp_path)
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
        schedule = _build_schedule(cfg.schedule, model, cfg.N)
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
                path = time_change(traj, schedule, indices=_diag_state_grid(cfg.N))
                apt_deficit(path, model.field, T=0.5).to_csv(ref / "apt.csv")
        got = (tmp_path / "out" / "diagnostics" / "apt.csv").read_bytes()
        assert got == (ref / "apt.csv").read_bytes()

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


class TestExperimentCommands:
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
        doc = json.loads(capsys.readouterr().out)
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
                n_runs=4,
            ),
        )
        assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "out")]) == 0
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert doc["report"] is None

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
            ("simulate", {"output": {"trajectories": 1}}),
            ("simulate", {"diagnostics": [{"name": "apt"}], "output": {"write_diagnostics": True}}),
            ("check", {"checks": [{"name": "remainder"}]}),
        ],
    )
    def test_blown_up_run_zero_exits_one(self, tmp_path, capsys, command, extra):
        # seed 8 blows up runs 0, 3 and 5 of 8: under the ensemble limit,
        # but the command needs run 0 in full, and run 0 left the region
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
        assert main([command, "--config", str(p), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "left the admissible region at step" in err
        assert "Traceback" not in err

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

    def test_report_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "missing.json")]) == 1

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
        "where, spec, path",
        [
            ("model", {"kind": "synthetic", "mu": None}, "model"),
            ("model", {"kind": "vrrw_meanfield", "d": None, "alpha": 2.0}, "model.d"),
            ("model", {"kind": "vrrw_meanfield", "d": 3, "alpha": 2.0, "initial_counts": 5}, "model"),
            ("model", {"kind": "linear", "H": [[1.0]], "unstable_dims": [1]}, "model.unstable_dims"),
            ("model", {"kind": "vrrw_walk", "d": 3, "alpha": 2.0, "start_vertex": None},
             "model.start_vertex"),
            ("model", {"kind": "linear", "H": {"a": 1}}, "model"),
            ("schedule", {"kind": "power", "gamma_exp": None}, "schedule"),
            ("schedule", {"kind": "harmonic", "offset": "x"}, "schedule"),
            ("schedule", {"kind": "geometric", "c_ratio": -1}, "schedule"),
        ],
        ids=[
            "mu-null", "d-null", "initial_counts-int", "unstable_dims-list",
            "start_vertex-null", "H-object", "gamma_exp-null", "offset-string",
            "c_ratio-negative",
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
                "error: model.A: required field is missing\n",
            ),
            (
                {"kind": "vrrw_walk", "d": 3},
                "error: model.alpha: required field is missing\n",
            ),
        ],
        ids=["d-fractional", "unstable_dims-fractional", "A-missing", "alpha-missing"],
    )
    def test_model_field_error_names_the_field(self, tmp_path, capsys, spec, expected):
        p = write_config(tmp_path, base_config(n_runs=4, model=spec))
        code = main(["simulate", "--config", str(p), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "out").exists()

    _PARAMS = [("checks", name, key) for name, keys in _CHECK_PARAMS.items() for key in keys]
    _PARAMS += [("diagnostics", name, key) for name, keys in _DIAGNOSTIC_PARAMS.items() for key in keys]

    @settings(max_examples=60, deadline=None)
    @given(param=st.sampled_from(_PARAMS), value=st.deferred(lambda: TestConfigErrors._VALUES))
    def test_swapped_parameter_never_gives_a_traceback(self, param, value):
        where, name, key = param
        cfg = base_config(N=60, n_runs=4, **{where: [{"name": name, key: value}]})
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

    @settings(max_examples=60, deadline=None)
    @given(
        command=st.sampled_from(["simulate", "check"]),
        key=st.sampled_from(_FIELDS),
        value=_VALUES,
    )
    def test_swapped_field_never_gives_a_traceback(self, command, key, value):
        cfg = base_config(
            N=60,
            n_runs=4,
            checks=[{"name": "remainder"}, {"name": "noise_excitation"}],
            diagnostics=[{"name": "apt"}],
        )
        cfg[key] = value
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            p = write_config(Path(tmp), cfg)
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--config", str(p), "--out", str(Path(tmp) / "out")])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert err.getvalue().startswith("error: ")


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
