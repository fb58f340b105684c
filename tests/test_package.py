"""The package's public surface."""

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

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
# no command loads scipy.linalg or scipy.special
# ---------------------------------------------------------------------------
# The Schur and Sylvester solves load scipy's LAPACK wrapper alone, not the
# scipy.linalg package.  The test process has scipy.special and scipy.linalg
# loaded already, so each case runs in a fresh interpreter, and its output is
# compared with a run in this process where scipy.linalg does the solves.

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


def _scipy_linalg_solves():
    """In the block, the split and the adapted inner product call
    ``scipy.linalg.schur`` and ``solve_sylvester`` themselves."""
    import scipy.linalg

    from trapcheck import spectral

    stack = contextlib.ExitStack()
    stack.enter_context(mock.patch.object(
        spectral, "_schur", lambda a, sort=None: scipy.linalg.schur(a, output="real", sort=sort)))
    stack.enter_context(mock.patch.object(
        spectral, "_solve_sylvester", scipy.linalg.solve_sylvester))
    return stack


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


def test_pooled_simulate_parent_never_loads_openssl(tmp_path):
    # config_hash is CPython's own SHA-256, and the parent of a pool draws
    # nothing itself, so neither hashlib nor numpy.random loads _hashlib
    # (OpenSSL's libcrypto) there; the workers import numpy.random through
    # engine, which keeps _hashlib out of them too
    (tmp_path / "config.json").write_text(json.dumps(_CONFIG))
    out = _fresh(f"""
        import trapcheck.cli
        after_import = "_hashlib" in sys.modules
        with contextlib.redirect_stdout(io.StringIO()):
            code = trapcheck.cli.main(["simulate", "--config", {str(tmp_path / "config.json")!r},
                                       "--out", {str(tmp_path / "out")!r}, "--workers", "2"])
        print(json.dumps([code, after_import, "_hashlib" in sys.modules]))
    """)
    assert out == [0, False, False]


def test_check_and_a_pooled_simulate_parent_load_no_numpy_ma(tmp_path):
    # np.unique, np.quantile and np.median import numpy.ma (1.27 MB); a
    # command that runs as one batch also leaves concurrent.futures unloaded
    (tmp_path / "config.json").write_text(json.dumps(_CONFIG))
    out = _fresh(f"""
        from trapcheck.cli import main
        config, loaded = {str(tmp_path / "config.json")!r}, {{}}
        for argv in (["check"], ["simulate", "--workers", "2"]):
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([*argv, "--config", config, "--out", {str(tmp_path)!r} + "/" + argv[0]])
            loaded[argv[0]] = [code] + [m for m in ("numpy.ma", "concurrent.futures")
                                        if m in sys.modules]
        print(json.dumps(loaded))
    """)
    assert out["check"][0] != 1
    assert out == {"check": [out["check"][0]], "simulate": [0, "concurrent.futures"]}


_NON_DIAGONAL = {
    "model": {"kind": "linear", "H": [[1.0, 0.5], [0.0, -2.0]]},
    "checks": [{"name": "rate_condition", "nu": 1.0}, {"name": "noise_excitation"}],
}
_STEP = {"kind": "power", "exponent": 1.0, "offset": 1.0}
_VRRW = {
    "model": {"kind": "vrrw_meanfield", "d": 3, "alpha": 2.0},
    "schedule": {"gamma": _STEP, "c": _STEP},
    "N": 300,
    "n_runs": 32,
    "master_seed": 7,
    "checks": [{"name": "noise_excitation", "k": 1}, {"name": "tail_noise", "window": [15, 300]}],
}


def _body(path):
    doc = json.loads(path.read_text())
    doc.pop("meta")
    return doc


@pytest.mark.parametrize(
    "config",
    [_CONFIG, {**_CONFIG, **_NON_DIAGONAL}, _VRRW],
    ids=["diagonal-saddle", "non-diagonal-linear", "vrrw-one-block"],
)
def test_check_loads_no_scipy_submodule_with_unchanged_output(tmp_path, config):
    # a diagonal Jacobian is split by a permutation, the dense linear H by
    # Schur and Sylvester, the VRRW trap's by Schur alone (one block)
    from trapcheck.cli import main

    (tmp_path / "config.json").write_text(json.dumps(config))
    out = _fresh(f"""
        from trapcheck.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["check", "--config", {str(tmp_path / "config.json")!r},
                         "--out", {str(tmp_path / "fresh")!r}])
        print(json.dumps({{"code": code, "loaded": loaded()}}))
    """)
    assert out["loaded"] == ["scipy"]
    assert out["code"] != 1
    with _scipy_linalg_solves(), contextlib.redirect_stdout(io.StringIO()):
        code = main(["check", "--config", str(tmp_path / "config.json"),
                     "--out", str(tmp_path / "here")])
    assert out["code"] == code
    assert _body(tmp_path / "fresh" / "summary.json") == _body(tmp_path / "here" / "summary.json")


def test_check_loads_no_openssl_and_leaves_hashlib_whole(tmp_path):
    # engine imports numpy.random with _hashlib blocked, then drops the
    # secrets, hmac and hashlib that import made: a later import hashlib is
    # the full module, backed by OpenSSL
    (tmp_path / "config.json").write_text(json.dumps(_VRRW))
    out = _fresh(f"""
        from trapcheck.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["check", "--config", {str(tmp_path / "config.json")!r},
                         "--out", {str(tmp_path / "out")!r}, "--workers", "1"])
        after_check = "_hashlib" in sys.modules
        import hashlib
        print(json.dumps([code, after_check, hasattr(hashlib, "pbkdf2_hmac"),
                          "_hashlib" in sys.modules]))
    """)
    assert out[0] != 1
    assert out[1:] == [False, True, True]


def test_chunk_worker_loads_no_openssl():
    # what each pool worker runs: its runs' generators, and one batch
    out = _fresh("""
        import numpy as np
        from trapcheck import engine, models, sequences
        spec = sequences.SequenceSpec("power", exponent=1.0)
        capture = engine.CaptureSpec.normalize(
            engine.CaptureSpec(state_indices=(0, 50), increment_indices=range(10, 100)), 100)
        res = engine._chunk_worker(models.LinearModel(np.diag([1.0, -1.0])),
                                   sequences.Schedule(spec, spec, 100), np.zeros(2), 100, 7,
                                   np.arange(4), 75, capture, 1e6)
        print(json.dumps([res["noise_means"].shape[1], "_hashlib" in sys.modules]))
    """)
    assert out == [90, False]


def test_spectral_loads_no_scipy_submodule_with_unchanged_output(capsys):
    # the split's Sylvester solve, and the adapted inner product behind the
    # printed coercivity constant
    from trapcheck.cli import main

    matrix = "[[1, 0.5], [0, -2]]"
    out = _fresh(f"""
        from trapcheck.cli import main
        with contextlib.redirect_stdout(io.StringIO()) as text:
            spectral = [main(["spectral", {matrix!r}, "--json"]), text.getvalue()]
        print(json.dumps({{"spectral": spectral, "loaded": loaded()}}))
    """)
    assert out["loaded"] == ["scipy"]
    assert "coercivity_lambda" in json.loads(out["spectral"][1])
    capsys.readouterr()
    with _scipy_linalg_solves():
        code = main(["spectral", matrix, "--json"])
    assert out["spectral"] == [code, capsys.readouterr().out]


def test_spectral_of_a_diagonal_matrix_loads_no_lapack():
    # the split permutes a diagonal matrix, and the coercivity constant of
    # its repulsive block is 1/max(S) for S = diag(1/h)
    out = _fresh("""
        from trapcheck import spectral
        from trapcheck.cli import main
        with contextlib.redirect_stdout(io.StringIO()) as text:
            code = main(["spectral", "[[0.001, 0, 0], [0, 2, 0], [0, 0, -2]]", "--json"])
        doc = json.loads(text.getvalue())
        print(json.dumps([code, doc["coercivity_lambda"], spectral._flapack.cache_info().misses,
                          loaded()]))
    """)
    assert out == [0, 0.001, 0, ["scipy"]]
