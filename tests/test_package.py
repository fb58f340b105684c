"""The package's public surface."""

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

_MODULES = ("cli", "engine", "errors", "flow", "hypotheses", "models", "sequences", "spectral")


@pytest.mark.parametrize("module", ("trapcheck",) + tuple(f"trapcheck.{m}" for m in _MODULES))
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_package_exports_every_module_name_once():
    import trapcheck

    modules = [importlib.import_module(f"trapcheck.{m}") for m in _MODULES]
    union = {name for mod in modules for name in mod.__all__}
    assert len(trapcheck.__all__) == len(set(trapcheck.__all__))
    assert set(trapcheck.__all__) == union
    for mod in modules:
        for name in mod.__all__:
            assert getattr(trapcheck, name) is getattr(mod, name)


# ---------------------------------------------------------------------------
# scipy.linalg loads on first use, scipy.special never
# ---------------------------------------------------------------------------
# The test process has scipy.special and scipy.linalg loaded already, so each
# case runs in a fresh interpreter.

_SRC = Path(__file__).resolve().parents[1] / "src"
_SUBMODULES = ("scipy.special", "scipy.linalg")
_CONFIG = {
    "model": {"kind": "synthetic", "mu": -1.0, "nu": 1.0, "dim": 2, "delta_plus": 1},
    "schedule": {"kind": "harmonic"},
    "N": 300,
    "n_runs": 4,
    "master_seed": 7,
    "x0": [0.0, 0.3],
    "checks": [{"name": "rate_condition"}, {"name": "noise_excitation"}],
    "diagnostics": [{"name": "apt", "T": 0.5}],
}


def _fresh(code: str) -> dict:
    """The JSON object that ``code`` prints last, run in a new interpreter;
    ``loaded()`` there names the scipy modules in ``sys.modules``."""
    prelude = (
        "import contextlib, io, json, sys\n"
        "def loaded():\n"
        f"    return [m for m in ('scipy',) + {_SUBMODULES!r} if m in sys.modules]\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(code)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(_SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["trapcheck", "trapcheck.cli"])
def test_import_loads_scipy_but_not_its_submodules(module):
    out = _fresh(f"import {module}\nprint(json.dumps(loaded()))")
    assert out == ["scipy"]


def test_simulate_and_report_load_no_scipy_submodule(tmp_path):
    (tmp_path / "config.json").write_text(json.dumps(_CONFIG))
    out = _fresh(f"""
        from trapcheck.cli import main
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(main(["simulate", "--config", {str(tmp_path / "config.json")!r},
                               "--out", {str(tmp_path / "out")!r}]))
            codes.append(main(["report", {str(tmp_path / "out")!r}]))
        print(json.dumps({{"codes": codes, "loaded": loaded()}}))
    """)
    assert out == {"codes": [0, 0], "loaded": ["scipy"]}


_NON_DIAGONAL = {
    "model": {"kind": "linear", "H": [[1.0, 0.5], [0.0, -2.0]]},
    "checks": [{"name": "rate_condition", "nu": 1.0}, {"name": "noise_excitation"}],
}


@pytest.mark.parametrize(
    "overrides, loaded",
    [({}, ["scipy"]), (_NON_DIAGONAL, ["scipy", "scipy.linalg"])],
    ids=["diagonal-saddle", "non-diagonal-linear"],
)
def test_check_loads_scipy_linalg_only_for_a_non_diagonal_split(tmp_path, overrides, loaded):
    # a diagonal Jacobian is split by a permutation, any other by Schur
    (tmp_path / "config.json").write_text(json.dumps({**_CONFIG, **overrides}))
    out = _fresh(f"""
        from trapcheck.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["check", "--config", {str(tmp_path / "config.json")!r},
                         "--out", {str(tmp_path / "out")!r}])
        print(json.dumps({{"code": code, "loaded": loaded()}}))
    """)
    assert out["loaded"] == loaded
    assert out["code"] != 1 and (tmp_path / "out" / "summary.json").exists()


def _body(path):
    doc = json.loads(path.read_text())
    doc.pop("meta")
    return doc


def test_spectral_and_check_load_them_with_unchanged_output(tmp_path, capsys):
    from trapcheck.cli import main

    (tmp_path / "config.json").write_text(json.dumps(_CONFIG))
    matrix = "[[1, 0.5], [0, -2]]"
    out = _fresh(f"""
        from trapcheck.cli import main
        with contextlib.redirect_stdout(io.StringIO()) as text:
            spectral = [main(["spectral", {matrix!r}, "--json"]), text.getvalue()]
        after_spectral = loaded()
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["check", "--config", {str(tmp_path / "config.json")!r},
                         "--out", {str(tmp_path / "fresh")!r}])
        print(json.dumps({{"spectral": spectral, "after_spectral": after_spectral,
                          "code": code, "after_check": loaded()}}))
    """)
    assert "scipy.linalg" in out["after_spectral"]
    # the exact tails of power sequences use trapcheck's own Hurwitz zeta
    assert out["after_check"] == ["scipy", "scipy.linalg"]
    capsys.readouterr()
    assert out["spectral"] == [main(["spectral", matrix, "--json"]), capsys.readouterr().out]
    code = main(["check", "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path / "here")])
    assert out["code"] == code
    assert _body(tmp_path / "fresh" / "summary.json") == _body(tmp_path / "here" / "summary.json")
