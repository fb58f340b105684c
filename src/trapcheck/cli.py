"""Command-line interface and experiment orchestration.

Subcommands
-----------
``simulate``  run the ensemble and write ``summary.json`` (no checks)
``check``     full pipeline: simulate -> hypothesis checks -> diagnostics -> report
``spectral``  classify a matrix (block split, mu, coercivity constant)
``report``    render an existing ``summary.json`` as text

Exit codes: 0 all requested checks pass or are inconclusive, 2 some check
failed (or the spectral classification cannot certify instability), 1 runtime,
configuration or usage error.

Everything that can vary between identical reruns (timestamps, worker count,
the numeric stack) lives under the ``meta`` key of ``summary.json``; the rest of the file is
byte-stable for a fixed config and seed, for any worker count.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import datetime
import json
import os
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

try:  # CPython's own SHA-256: hashlib would load OpenSSL's libcrypto for it
    from _sha256 import sha256
except ImportError:  # Python 3.12 on
    from _sha2 import sha256

import numpy as np
import scipy

from . import engine, flow, hypotheses, models, sequences, spectral
from .errors import AmbiguousSpectrumError, ConfigError, InsufficientHorizonError, TrapcheckError

__all__ = [
    "ExperimentConfig",
    "run_experiment",
    "canonical_json",
    "config_hash",
    "main",
]

SCHEMA_VERSION = 1


_ARRAY = (list, tuple)  # a JSON array, or a tuple from a programmatic caller
_JSON_TYPE_NAMES = {dict: "an object", _ARRAY: "an array", str: "a string"}


def _typed(value, kind: type, path: str):
    """``value`` if it has JSON type ``kind``, else a ConfigError at ``path``."""
    if not isinstance(value, kind):
        raise ConfigError(f"must be {_JSON_TYPE_NAMES[kind]}, got {value!r}", path)
    return value


def _integer(value, path: str, lo: Optional[int] = None, hi: Optional[int] = None) -> int:
    """A JSON integer in ``[lo, hi]`` (either bound optional); integral
    floats such as ``2e4`` count."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"must be an integer, got {value!r}", path)
    if lo is not None and value < lo:
        raise ConfigError(f"must be >= {lo}, got {value}", path)
    if hi is not None and value > hi:
        raise ConfigError(f"must be <= {hi}, got {value}", path)
    return value


def _real(test, what: str):
    """A parser of a finite JSON number (booleans are not numbers), as a
    float, that passes ``test``."""

    def parse(value, path: str) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"must be a number, got {value!r}", path)
        try:
            x = float(value)
        except OverflowError:  # an integer beyond the float range
            x = np.inf
        if not (np.isfinite(x) and test(x)):
            raise ConfigError(f"must be {what}, got {value!r}", path)
        return x

    return parse


_finite = _real(lambda x: True, "finite")
_positive = _real(lambda x: x > 0, "positive and finite")
_nonnegative = _real(lambda x: x >= 0, "non-negative and finite")
#: The moment conditions need an exponent above 2.
_moment_exponent = _real(lambda x: x > 2, "above 2 and finite")


def _count(value, path: str) -> int:
    return _integer(value, path, lo=1)


#: Largest ``N``, ``n_runs`` or ``horizon``: step numbers are float64, exact up to 2^53.
_MAX_SIZE = 2**53


def _size(value, path: str) -> int:
    return _integer(value, path, lo=1, hi=_MAX_SIZE)


def _boolean(value, path: str) -> bool:
    """A JSON boolean (``0``, ``"no"`` and the like are not booleans)."""
    if not isinstance(value, bool):
        raise ConfigError(f"must be true or false, got {value!r}", path)
    return value


def _at(path: str, key) -> str:
    """The dotted path of field ``key`` of the object at ``path`` (the top
    level is the empty path)."""
    return f"{path}.{key}" if path else str(key)


def _known(obj: dict, fields, path: str) -> dict:
    """``obj`` if every key is one of ``fields``, else a ConfigError at the
    first unknown key."""
    for key in obj:
        if key not in fields:
            raise ConfigError("unknown field", _at(path, key))
    return obj


def _one_of(*options):
    def parse(value, path: str):
        if isinstance(value, bool) or value not in options:
            raise ConfigError(f"must be one of {', '.join(options)}, got {value!r}", path)
        return value

    return parse


def _optional(parse):
    """A parser that reads ``null`` as None and any other value by ``parse``."""
    return lambda value, path: None if value is None else parse(value, path)


def _array_of(parse):
    """A parser of a JSON array, as a tuple, whose entries ``parse`` reads,
    each at ``path[i]``."""

    def parse_array(value, path: str) -> tuple:
        return tuple(parse(v, f"{path}[{i}]") for i, v in enumerate(_typed(value, _ARRAY, path)))

    return parse_array


_matrix = _array_of(_array_of(_finite))


def _fields(obj: dict, params: dict, path: str, extra=()) -> dict:
    """The fields of ``obj`` parsed: ``params`` maps each field to its parser
    and default (``...`` if it has none); ``extra`` keys are kept as given,
    and any other key is an unknown field."""
    _known(obj, (*extra, *params), path)
    out = {key: obj[key] for key in extra if key in obj}
    for key, (parse, default) in params.items():
        if key in obj:
            out[key] = parse(obj[key], _at(path, key))
        elif default is ...:
            raise ConfigError("required field is missing", _at(path, key))
        else:
            out[key] = default
    return out


def _entry(value, path: str, params: dict, what: str, key: str = "name", extra=()) -> dict:
    """An object whose ``key`` names one entry of ``params`` (an unknown one
    is an unknown ``what``), with that entry's fields parsed (see
    :func:`_fields`)."""
    name = _typed(value, dict, path).get(key)
    if not isinstance(name, str) or name not in params:
        raise ConfigError(f"unknown {what} {name!r}", f"{path}.{key}")
    return _fields(value, params[name], path, (key, *extra))


#: A ``window`` of steps (a check's, or ``rate_window``), kept as given here
#: and checked against ``N`` by :meth:`ExperimentConfig.from_dict`.  Unset, a
#: check reads every step of run 0, or every captured increment: also the
#: steps that only another configured check asked the ensemble for.
_WINDOW = (lambda v, path: v, None)


@dataclass(frozen=True)
class _Check:
    """One check or diagnostic: its fields (parser and default); ``steps(c, N)``,
    the part of the capture plan that entry ``c`` reads; ``run(c, **inputs)``, its
    checker or diagnostic on the pipeline's summary, rates, split, mu, nu, field and
    K; ``statistics(c, split, nu)``, the noise statistics it reads at its steps
    (:class:`engine.CaptureSpec`)."""

    params: dict
    steps: Callable
    run: Callable
    statistics: Callable = lambda c, split, nu: ()


def _capture_window(c: dict, N: int) -> tuple:
    """Check ``c``'s window, or the last nine tenths of the run without one."""
    return c["window"] or (max(1, N // 10), N)


def _sampled_steps(c: dict, N: int) -> engine.CaptureSpec:
    """``k`` consecutive steps (1 without ``k``) from 64 log-spaced starts in the window."""
    lo, hi = _capture_window(c, N)
    k = c.get("k", 1)
    starts = np.geomspace(max(lo, 1), max(hi - k, lo + 1), 64).astype(np.int64)
    steps = (starts[:, None] + np.arange(k)).ravel()
    return engine.CaptureSpec(increment_indices=steps[steps < N])


def _contiguous_steps(c: dict, N: int) -> engine.CaptureSpec:
    """Every step of the window."""
    lo, hi = _capture_window(c, N)
    return engine.CaptureSpec(increment_indices=np.arange(lo, hi))


def _run_zero(c: dict, N: int) -> engine.CaptureSpec:
    return engine.CaptureSpec(full_runs=(0,))


#: Points of the log grid of steps at which the ensemble keeps every run's
#: state for the diagnostics (fewer when N is smaller or steps repeat).
_DIAG_STATE_POINTS = 1024


def _state_grid(c: dict, N: int) -> engine.CaptureSpec:
    grid = np.geomspace(1, N, min(_DIAG_STATE_POINTS, N)).astype(np.int64)
    return engine.CaptureSpec(state_indices=grid)


#: Every check by name.  A ``nu`` left unset is the model's; ``remainder``
#: and ``tail_noise`` take 1 when the model declares none.
_CHECKS = {
    "noise_excitation": _Check(
        {
            "k": (_count, 1),
            "a": (_moment_exponent, 4.0),
            "threshold": (_nonnegative, hypotheses.DEFAULT_EXCITATION_THRESHOLD),
            "window": _WINDOW,
        },
        _sampled_steps,
        lambda c, summary, split, **_: hypotheses.check_noise_excitation(
            summary, split, c["k"], c["a"], c["window"], c["threshold"]
        ),
        lambda c, split, nu: hypotheses.excitation_statistics(split, c["a"]),
    ),
    "remainder": _Check(
        {
            "mode": (_one_of("square_summable", "split_r"), "square_summable"),
            "nu": (_positive, None),
            "window": _WINDOW,
        },
        _run_zero,
        lambda c, summary, nu, **_: hypotheses.check_remainder(
            summary.trajectory(0), c["mode"], c["nu"] or nu or 1.0, c["window"]
        ),
    ),
    "drift_sign": _Check(
        {
            "rho": (_positive, 1.0),
            "mode": (_one_of("nonneg", "coercive"), "nonneg"),
            "beta": (_finite, 0.0),
            "adapted": (_boolean, False),
            "window": _WINDOW,
        },
        _run_zero,
        lambda c, summary, split, **_: hypotheses.check_drift_sign(
            summary.trajectory(0),
            summary.trap_point,
            c["rho"],
            c["mode"],
            c["beta"],
            c["window"],
            split if c["adapted"] else None,
        ),
    ),
    "rate_condition": _Check(
        {"nu": (_positive, None)},
        lambda c, N: engine.CaptureSpec(),
        lambda c, rates, mu, nu, **_: hypotheses.check_rate_condition(rates, mu, c["nu"] or nu),
    ),
    "jump_moments": _Check(
        {"a": (_moment_exponent, 4.0), "window": _WINDOW},
        _sampled_steps,
        lambda c, summary, **_: hypotheses.check_jump_moments(summary, c["a"], c["window"]),
        lambda c, split, nu: hypotheses.jump_statistics(c["a"]),
    ),
    "tail_noise": _Check(
        {"nu": (_positive, None), "window": _WINDOW},
        _contiguous_steps,
        lambda c, summary, split, nu, **_: hypotheses.check_tail_noise_condition(
            summary, split, c["nu"] or nu or 1.0, c["window"]
        ),
        lambda c, split, nu: hypotheses.tail_statistics(split, c["nu"] or nu or 1.0),
    ),
}

#: Every diagnostic by name, each a :class:`flow.EnsembleRates` on the state grid.
_DIAGNOSTICS = {
    "apt": _Check(
        {
            "T": (_positive, 1.0),
            "n_restarts": (_count, 48),
            "normalization": (_one_of("scale", "absolute"), "scale"),
        },
        _state_grid,
        lambda c, summary, field, **_: flow.ensemble_apt_deficit(
            summary, field, c["T"], c["normalization"], c["n_restarts"]
        ),
    ),
    "manifold_rate": _Check(
        {},
        _state_grid,
        lambda c, summary, K, split, **_: flow.ensemble_manifold_rate(summary, K, split),
    ),
}

#: Each model kind's parameters.  A reinforced walk runs on the graph ``A``,
#: or on the complete graph when ``A`` is unset.
_VRRW_PARAMS = {
    "d": (_integer, ...),
    "alpha": (_finite, ...),
    "A": (_matrix, None),
    "initial_counts": (_array_of(_count), None),
}
_MODEL_PARAMS = {
    "linear": {
        "H": (_matrix, ((1.0,),)),
        "noise": (_one_of("rademacher", "none", "stable_only"), "rademacher"),
        "remainder": (_one_of("none", "inv_sqrt"), "none"),
        "unstable_dims": (_integer, 1),
    },
    "synthetic": {
        "mu": (_finite, -1.0),
        "nu": (_positive, 1.0),
        "dim": (_integer, 2),
        "delta_plus": (_integer, 1),
    },
    "vrrw_walk": {**_VRRW_PARAMS, "start_vertex": (_integer, 0)},
    "vrrw_meanfield": _VRRW_PARAMS,
    "control": {"which": (_one_of("degenerate_noise", "stable_only_noise", "bad_remainder"), ...)},
}

#: The compact schedule kinds, each driving ``gamma`` and ``c`` from one
#: object; ``harmonic`` is ``power`` with both exponents 1, and ``natural``
#: is the model's own schedule.
_SCHEDULE_PARAMS = {
    "harmonic": {"offset": (_nonnegative, 0.0)},
    "power": {
        "gamma_exp": (_finite, 1.0),
        "c_exp": (_finite, 1.0),
        "gamma_scale": (_nonnegative, 1.0),
        "c_scale": (_nonnegative, 1.0),
        "offset": (_nonnegative, 0.0),
    },
    "geometric": {"gamma_ratio": (_positive, 0.5), "c_ratio": (_positive, 0.5)},
    "natural": {},
}
#: The explicit form's per-sequence specs, the fields of
#: :class:`sequences.SequenceSpec`.
_SEQUENCE_PARAMS = {
    "power": {
        "exponent": (_finite, 1.0),
        "scale": (_nonnegative, 1.0),
        "offset": (_nonnegative, 0.0),
    },
    "geometric": {"ratio": (_positive, 0.5), "scale": (_nonnegative, 1.0)},
    "const": {"value": (_nonnegative, 0.0)},
    "custom": {"values": (_array_of(_nonnegative), ...)},
}


def _sequence(value, path: str) -> dict:
    return _entry(value, path, _SEQUENCE_PARAMS, "sequence kind", key="kind")


def _schedule(value, path: str) -> dict:
    """The compact form, or the explicit form's ``gamma`` and ``c`` specs,
    with ``horizon`` kept as given (:meth:`ExperimentConfig.from_dict`
    checks it against ``N``)."""
    if "gamma" in _typed(value, dict, path) or "c" in value:
        return _fields(value, {s: (_sequence, ...) for s in ("gamma", "c")}, path, ("horizon",))
    return _entry(value, path, _SCHEDULE_PARAMS, "schedule kind", "kind", ("horizon",))


def _entries(params: dict, what: str):
    """A parser of a JSON array of objects keyed by ``name`` (see :func:`_entry`)."""
    return _array_of(lambda value, path: _entry(value, path, params, what))


_OUTPUT_PARAMS = {
    "dir": (lambda v, path: _typed(v, str, path), "trapcheck_out"),
    "trajectories": (lambda v, path: _integer(v, path, lo=0), 0),
    "write_diagnostics": (_boolean, False),
}

#: The top level of a config.  The fields that depend on ``N`` (the
#: schedule's ``horizon``, each check's ``window`` and ``rate_window``) are
#: kept as given here and checked against it by :meth:`ExperimentConfig.from_dict`.
_CONFIG_PARAMS = {
    "model": (lambda v, path: _entry(v, path, _MODEL_PARAMS, "model kind", key="kind"), ...),
    "schedule": (_schedule, ...),
    "N": (_size, ...),
    "n_runs": (_size, ...),
    "master_seed": (lambda v, path: _integer(v, path, lo=0), ...),
    "x0": (_optional(_array_of(_finite)), None),
    "checks": (_entries({name: check.params for name, check in _CHECKS.items()}, "check"), ()),
    "diagnostics": (_entries({n: d.params for n, d in _DIAGNOSTICS.items()}, "diagnostic"), ()),
    "theorem": (_optional(_one_of(*hypotheses.THEOREM_IDS)), None),
    "rate_window": _WINDOW,
    "near_trap_radius": (_positive, 1e-2),
    "max_blowup_fraction": (_real(lambda x: 0 <= x <= 1, "in [0, 1]"), 0.5),
    "output": (
        lambda v, path: _fields(_typed(v, dict, path), _OUTPUT_PARAMS, path),
        _fields({}, _OUTPUT_PARAMS, "output"),
    ),
}


def _window(value, lo: int, N: int, path: str) -> tuple:
    """An integer pair ``(a, b)`` with ``lo <= a < b <= N``."""
    if not isinstance(value, _ARRAY) or len(value) != 2:
        raise ConfigError(f"must be a pair [start, end], got {value!r}", path)
    a, b = (_integer(v, f"{path}[{i}]") for i, v in enumerate(value))
    if not lo <= a < b <= N:
        raise ConfigError(f"window {list(value)} not within [{lo}, {N}]", path)
    return a, b


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------


def _jsonable(obj):
    """Plain JSON types only; non-finite floats become strings."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)  # 'inf', '-inf', 'nan'
    return obj


def canonical_json(obj) -> str:
    """Deterministic rendering: sorted keys, shortest round-trip floats."""
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def config_hash(cfg: dict) -> str:
    compact = json.dumps(_jsonable(cfg), sort_keys=True, separators=(",", ":"))
    return sha256(compact.encode()).hexdigest()


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (see README for the schema)."""

    model: dict
    schedule: dict
    N: int
    n_runs: int
    master_seed: int
    x0: Optional[tuple]
    checks: tuple
    diagnostics: tuple
    theorem: Optional[str]
    rate_window: Optional[tuple]
    near_trap_radius: float
    max_blowup_fraction: float
    output: dict
    raw: dict

    @staticmethod
    def from_dict(cfg: dict) -> "ExperimentConfig":
        out = _fields(_typed(cfg, dict, "config"), _CONFIG_PARAMS, "")
        N, model, schedule = out["N"], out["model"], out["schedule"]
        schedule["horizon"] = _integer(schedule.get("horizon", N), "schedule.horizon", N, _MAX_SIZE)
        if schedule.get("kind") == "natural" and not model["kind"].startswith("vrrw_"):
            raise ConfigError(f"model {model['kind']} has no natural schedule", "schedule.kind")
        for i, c in enumerate(out["checks"]):
            if c.get("window") is not None:
                c["window"] = _window(c["window"], 0, N, f"checks[{i}].window")
        if out["rate_window"] is not None:
            out["rate_window"] = _window(out["rate_window"], 1, N, "rate_window")
        return ExperimentConfig(**out, raw=dict(cfg))

    @staticmethod
    def load(path) -> "ExperimentConfig":
        try:
            cfg = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON at line {exc.lineno}: {exc.msg}", str(path))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(str(exc), str(path))
        return ExperimentConfig.from_dict(cfg)


def _build_model(spec: dict) -> models.Model:
    """The model of a parsed ``model`` object."""
    kind = spec["kind"]
    if kind == "linear":
        return models.LinearModel(
            spec["H"],
            noise_kind=spec["noise"],
            remainder_kind=spec["remainder"],
            unstable_dims=spec["unstable_dims"],
        )
    if kind == "synthetic":
        return models.SyntheticModel(spec["mu"], spec["nu"], spec["dim"], spec["delta_plus"])
    if kind == "control":
        return models.control_models()[spec["which"]]
    if spec["A"] is None:
        cfg = models.VrrwConfig.complete(spec["d"], spec["alpha"], spec["initial_counts"])
    else:
        cfg = models.VrrwConfig(spec["d"], spec["alpha"], spec["A"], spec["initial_counts"])
    if kind == "vrrw_walk":
        return models.VrrwWalkModel(cfg, start_vertex=spec["start_vertex"])
    return models.MeanFieldVrrwModel(cfg)


def _build_schedule(spec: dict, model: models.Model) -> sequences.Schedule:
    """The schedule of a parsed ``schedule`` object."""
    kind, Seq = spec.get("kind"), sequences.SequenceSpec
    if kind == "natural":
        return model.natural_schedule(spec["horizon"])
    if kind == "harmonic":
        g = c = Seq("power", exponent=1.0, offset=spec["offset"])
    elif kind == "power":
        g, c = (
            Seq("power", exponent=spec[f"{s}_exp"], scale=spec[f"{s}_scale"], offset=spec["offset"])
            for s in ("gamma", "c")
        )
    elif kind == "geometric":
        g, c = (Seq("geometric", ratio=spec[f"{s}_ratio"]) for s in ("gamma", "c"))
    else:
        g, c = Seq(**spec["gamma"]), Seq(**spec["c"])
    return sequences.Schedule(g, c, spec["horizon"])


def _built(path: str, build, *args):
    """``build(*args)``, with the ValueError of an invariant its constructors
    check (``H`` square, ``mu`` negative, ``A`` symmetric) as a ConfigError at ``path``."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(str(exc), path) from exc


# ---------------------------------------------------------------------------
# capture planning
# ---------------------------------------------------------------------------


def _capture_plan(config: ExperimentConfig, split, nu):
    """What the ensemble keeps: the union of the states, steps, full runs and
    noise statistics (on ``split``, with the model's ``nu``) the checks and
    diagnostics read, and the runs whose CSVs are written."""
    records = [(_CHECKS[c["name"]], c) for c in config.checks]
    records += [(_DIAGNOSTICS[d["name"]], d) for d in config.diagnostics]
    parts = [record.steps(c, config.N) for record, c in records]
    written = range(min(config.output["trajectories"], config.n_runs))
    parts.append(engine.CaptureSpec(full_runs=written))
    # one array per field, which normalize sorts and deduplicates, and the
    # statistics in order of first use
    fields = ("state_indices", "increment_indices", "full_runs")
    merged = engine.CaptureSpec(
        *(np.concatenate([np.asarray(getattr(p, f), np.int64) for p in parts]) for f in fields),
        statistics=tuple(st for r, c in records for st in r.statistics(c, split, nu)),
    )
    return engine.CaptureSpec.normalize(merged, config.N)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def _resolve_split_and_constants(model: models.Model):
    """Numeric split at the declared trap, plus effective (mu, nu).

    Declared model constants take precedence over the numeric split: models
    that declare them derive the values exactly, and degenerate spectra (for
    which the numeric split sees only the center block) would otherwise
    misreport the contraction rate.  The numeric split is still returned for
    statistics' projections when it certifies repulsive directions.
    """
    trap = model.trap
    if trap is None:
        return None, None, None
    try:
        split = spectral.split_jacobian(np.asarray(trap.jacobian, dtype=np.float64))
    except TrapcheckError:
        split = None
    mu = trap.mu
    if mu is None and split is not None:
        mu = split.mu
    return split, mu, trap.nu


def _run_checks(config, summary, **inputs) -> list:
    """Each check's result; one that reads run 0 in full is inconclusive if it blew up."""
    conds = []
    for c in config.checks:
        check = _CHECKS[c["name"]]
        if check.steps is _run_zero and not summary.ok[0]:
            reason = f"run 0 blew up at step {summary.blowup_step[0]}"
            # the checks of run 0 name their result by mode
            conds.append(hypotheses._inconclusive(f"{c['name']}_{c['mode']}", reason))
        else:
            conds.append(check.run(c, summary=summary, **inputs))
    return conds


def _x0_of(config: ExperimentConfig, model: models.Model) -> np.ndarray:
    if config.x0 is not None:
        x0 = np.asarray(config.x0, dtype=np.float64)
        if x0.shape != (model.dim,):
            raise ConfigError(f"must have dimension {model.dim}", "x0")
        return x0
    return model.initial_state()


def _run_diagnostics(config, summary, files, **inputs):
    """The diagnostics' medians over the ensemble; with ``write_diagnostics``, ``files``
    gains ``diagnostics/<name>.csv``: the columns of the first run that did not blow up
    in the diagnostic's result, named ``csv_run`` unless it is run 0 (null if none)."""
    csv_run = int(np.argmax(summary.ok)) if summary.ok.any() else None
    write = config.output["write_diagnostics"]
    named = {"csv_run": csv_run} if write and csv_run != 0 else {}
    out = {}
    for dg in config.diagnostics:
        name = dg["name"]
        res = _DIAGNOSTICS[name].run(dg, summary=summary, **inputs)
        if res is None:  # nothing to measure against
            out[name] = {"error": "model declares no invariant set"}
            continue
        n_rates = int(np.count_nonzero(~np.isnan(res.rates)))
        out[name] = {"median_rate": res.median, "n_rates": n_rates, **named}
        if res.deficits is not None:  # the shadow deficit names the restarts it excluded
            out[name]["n_excluded_restarts"] = res.n_excluded
        if write and csv_run is not None:  # else no run has rows to write
            csv = (engine._write_csv, res.first_run, [*res.first_run.values()])
            files[f"diagnostics/{name}.csv"] = csv
    return out


def _write_artifacts(out: Path, files: dict, doc: dict) -> None:
    """Remove what an earlier run wrote (``summary.json``, ``trajectories/run_*.csv``,
    each diagnostic's CSV and a subdirectory left empty; no other file), write each
    ``files[name] = (writer, *args)`` as ``writer(out / name, *args)``, and last, since it
    marks a complete run, ``doc`` as ``summary.json`` with these seconds as its ``io``."""
    start = time.perf_counter()
    old = [out / "summary.json", *out.glob("trajectories/run_*.csv")]
    old += [out / "diagnostics" / f"{name}.csv" for name in _DIAGNOSTICS]
    try:
        # existing paths first: a file in the way fails before anything changes
        for path in sorted({(out / n).parent for n in files}, key=Path.exists, reverse=True):
            path.mkdir(exist_ok=True)
        for path in filter(Path.is_file, old):
            path.unlink()
        for name, (writer, *args) in files.items():
            writer(out / name, *args)
        for path in (out / "trajectories", out / "diagnostics"):
            if path.is_dir() and not any(path.iterdir()):
                path.rmdir()
        doc["meta"]["timings_s"]["io"] = time.perf_counter() - start
        (out / "summary.json").write_text(canonical_json(doc))
    except OSError as exc:  # its message names the file when the OS does
        raise ConfigError(f"cannot write the run's files: {exc}", str(out)) from exc


@contextlib.contextmanager
def _output_dir(out: Path):
    """Create ``out`` and its missing parents for the block; if the block
    fails, remove those of them it left empty (an ``out`` that existed stays
    as it was)."""
    try:
        created = [p for p in (out, *out.parents) if not p.exists()]  # deepest first
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        why = exc.strerror or exc
        raise ConfigError(f"cannot create the output directory: {why}", str(out)) from exc
    try:
        yield
    except BaseException:
        for path in created:
            with contextlib.suppress(OSError):  # not empty: it stays
                path.rmdir()
        raise


def _check_vrrw_schedule(c: np.ndarray, model: models.Model, spec: dict) -> None:
    """A ConfigError unless a reinforced walk's ``c_1 .. c_N`` keep its
    occupation on the simplex and off a vertex where ``H`` is 0."""
    path = "schedule" if "kind" in spec else "schedule.c"
    # the noise moves v_n by c_n (e_J - p) toward the jump's vertex J: past
    # c_n = 1 the step overshoots J and leaves the simplex
    over = np.flatnonzero(c > 1.0)
    if over.size:
        n = int(over[0]) + 1
        raise ConfigError(
            f"c_{n} = {float(c[n - 1])!r} > 1 takes the occupation off the probability "
            "simplex; use a schedule with every c_n <= 1",
            path,
        )
    # v_1 = e_J + (1 - gamma_1) (x0 - pi(x0)) at c_1 = 1: the first jump's
    # vertex J, where H = A_JJ, or a point off the simplex
    if c[0] == 1.0 and not np.diag(model.cfg.A).all():
        raise ConfigError(
            "c_1 = 1 moves the occupation onto the first jump's vertex J, "
            "where H(v) = A_JJ is 0 on this graph; use a schedule with c_1 < 1",
            path,
        )


def run_experiment(
    config: ExperimentConfig,
    workers: int = 1,
    out_dir=None,
    with_checks: bool = True,
) -> tuple[int, dict]:
    """Execute a config end to end; returns (exit_code, summary dict) and
    then writes ``summary.json`` (plus optional trajectory/diagnostic CSVs).
    ``with_checks=False`` (``simulate``) runs the ensemble alone: the
    config's checks and diagnostics are ignored.

    ``meta.timings_s`` holds the wall seconds of each stage that ran:
    ``simulate`` (building the model and the ensemble), ``checks`` and
    ``diagnostics`` (``check`` only), and ``io`` (removing the last run's
    files and writing every CSV; ``summary.json`` is written after it),
    and ``run_steps_per_s`` N times n_runs over the ``simulate`` seconds.
    Next to it, ``numpy``, ``scipy`` and ``openblas_coretype`` name the
    numeric stack the body's bits rest on (the last None when unset).
    """
    marks = [time.perf_counter()]

    def lap() -> float:
        """Seconds since the previous lap, or since the start."""
        marks.append(time.perf_counter())
        return marks[-1] - marks[-2]

    if not with_checks:
        config = dataclasses.replace(config, checks=(), diagnostics=())
    timings = {}
    model = _built("model", _build_model, config.model)
    schedule = _built("schedule", _build_schedule, config.schedule, model)
    if config.model["kind"].startswith("vrrw_"):
        _check_vrrw_schedule(schedule.c_values[1 : config.N + 1], model, config.schedule)
    x0 = _x0_of(config, model)
    if model.trap is None or model.trap.nu is None:
        if any(c["name"] == "rate_condition" and c["nu"] is None for c in config.checks):
            raise ConfigError("rate_condition needs nu (config or model)", "checks")
    if with_checks:
        lo, hi = config.rate_window or (max(10, config.N // 100), config.N)
        if not lo < hi:
            raise ConfigError(
                f"default rate window ({lo}, {hi}) is empty; set rate_window or N > {lo}",
                "N",
            )
    # the split needs only the model; the capture plan projects on it
    split, mu, nu = _resolve_split_and_constants(model) if with_checks else (None, None, None)
    capture = _capture_plan(config, split, nu)
    for i, dg in enumerate(config.diagnostics):
        if "T" in dg:  # a window that fits nowhere on the state grid's clock fails now
            clock = schedule.partial_drift_sum(np.asarray(capture.state_indices, np.float64))
            try:
                flow.restart_positions(clock, dg["T"], dg["n_restarts"])
            except InsufficientHorizonError as exc:
                raise ConfigError(str(exc), f"diagnostics[{i}].T") from exc
    out = Path(out_dir if out_dir is not None else config.output["dir"])
    # created before the simulation, so an --out that cannot be a directory fails first
    with _output_dir(out):
        summary = engine.monte_carlo(
            model,
            schedule,
            x0,
            config.N,
            config.n_runs,
            config.master_seed,
            workers=workers,
            captures=capture,
        )
        if summary.blowup_count > config.max_blowup_fraction * config.n_runs:
            raise TrapcheckError(
                f"{summary.blowup_count}/{config.n_runs} runs blew up "
                f"(limit {config.max_blowup_fraction:.0%})"
            )
        timings["simulate"] = lap()

        doc = {
            "schema_version": SCHEMA_VERSION,
            "config_hash": config_hash(config.raw),
            "master_seed": config.master_seed,
            "ensemble": summary.to_dict(config.near_trap_radius),
            "report": None,
            "rates": None,
            "split": None,
            "diagnostics": {},
        }

        exit_code, files = 0, {}
        if with_checks:
            rates = sequences.rate_constants(schedule, (lo, hi))
            doc["rates"] = rates.to_dict()
            doc["split"] = split.to_dict() if split is not None else None
            conds = _run_checks(config, summary, rates=rates, split=split, mu=mu, nu=nu)
            rate = any(c["name"] == "rate_condition" for c in config.checks)
            theorem = config.theorem or ("th5d" if rate else "th2n")
            # the last check's moment exponent, and the longest excitation window
            a = next((c["a"] for c in reversed(config.checks) if "a" in c), None)
            k = max((c["k"] for c in config.checks if "k" in c), default=None)
            constants = hypotheses.make_constants(rates.lambda_hat, mu, nu, a, k)
            report = hypotheses.HypothesisReport(theorem, conds, constants)
            doc["report"] = report.to_dict()
            timings["checks"] = lap()
            inputs = {"field": model.field, "K": model.manifold_K, "split": split}
            doc["diagnostics"] = _run_diagnostics(config, summary, files, **inputs)
            timings["diagnostics"] = lap()
            if report.verdict == "fail":
                exit_code = 2

        for i in range(min(config.output["trajectories"], config.n_runs)):
            if summary.ok[i]:  # a blown run is listed in ensemble.blowup_runs
                files[f"trajectories/run_{i}.csv"] = (summary.trajectory(i).to_csv,)
        now = datetime.datetime.now(datetime.timezone.utc).isoformat()
        doc["meta"] = {
            "timestamp": now, "workers": int(workers), "chunks": summary.chunks,
            "timings_s": timings,
            "run_steps_per_s": config.N * config.n_runs / timings["simulate"],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE"),
        }
        _write_artifacts(out, files, doc)
    return exit_code, doc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_experiment(args, with_checks: bool) -> int:
    try:
        if args.workers < 1:
            raise ConfigError(f"must be >= 1, got {args.workers}", "workers")
        config = ExperimentConfig.load(args.config)
        if args.seed is not None:
            config = ExperimentConfig.from_dict(dict(config.raw, master_seed=args.seed))
        code, doc = run_experiment(
            config,
            workers=args.workers,
            out_dir=args.out,
            with_checks=with_checks,
        )
    except TrapcheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    text = canonical_json(doc)
    # rendered from the JSON that summary.json holds, so it reads as `report`
    print(text if args.json else _render(json.loads(text)), end="")
    return code


def _parse_matrix(token: str) -> np.ndarray:
    """The matrix ``token`` gives inline as JSON, or that the file it names
    holds as JSON or as CSV."""
    try:
        return np.asarray(json.loads(token), dtype=np.float64)
    except (ValueError, TypeError):  # not JSON, or not an array of numbers
        pass
    try:
        text = Path(token).read_text()
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, binary...
        raise ConfigError(f"not inline JSON nor a readable text file: {exc}", "matrix") from None
    try:
        return np.asarray(json.loads(text), dtype=np.float64)
    except (ValueError, TypeError):
        pass
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt only warns on a file with no rows
            return np.atleast_2d(np.loadtxt(text.splitlines(), delimiter=","))
    except (ValueError, UserWarning) as exc:
        raise ConfigError(f"neither a JSON nor a CSV matrix: {exc}", "matrix") from None


def _cmd_spectral(args) -> int:
    try:
        H = _parse_matrix(args.matrix)
        split = spectral.split_jacobian(H)
    except AmbiguousSpectrumError as exc:
        print(f"ambiguous spectrum: {exc}", file=sys.stderr)
        return 2
    except (TrapcheckError, ValueError) as exc:
        path = "" if isinstance(exc, ConfigError) else "matrix: "  # a ConfigError names its own
        print(f"error: {path}{exc}", file=sys.stderr)
        return 1
    lam = None
    if split.delta_plus >= 1:
        lam = spectral.adapted_inner_product(split.H_plus).lam
    doc = split.to_dict()
    doc["coercivity_lambda"] = lam
    if args.json:
        print(canonical_json(doc), end="")
    else:
        print(
            f"classification={split.classification} delta_plus={split.delta_plus} "
            f"delta_minus={split.delta_minus} mu={split.mu:.6g}"
            + (f" lambda={lam:.6g}" if lam is not None else "")
        )
    # no certified repulsive behavior -> signal via exit code
    return 2 if split.classification == "center" else 0


def _render(doc: dict) -> str:
    """The text of a parsed ``summary.json``, one line per fact (a ``nan``
    or ``inf`` that canonical JSON spells as a string prints as it is)."""

    def g(v):
        return f"{v:.6g}" if isinstance(v, float) else v

    ens = doc.get("ensemble", {})
    lines = [
        f"model {ens.get('model_id')}: {ens.get('n_runs')} runs, N={ens.get('N')}, "
        f"near-trap fraction {ens.get('near_trap_fraction')}, "
        f"blowups {ens.get('blowup_count')}",
        f"config hash: {doc.get('config_hash')}",
    ]
    r = doc.get("rates")
    if r:
        lines.append(
            f"rates: lambda_hat={g(r['lambda_hat'])} "
            f"ratio window [{g(r['ratio_inf'])}, {g(r['ratio_sup'])}]"
        )
    rep = doc.get("report")
    if rep:
        lines.append(f"theorem: {rep['theorem_id']}    overall: {rep['verdict']}")
        lines.append(
            "constants: "
            + ", ".join(f"{k}={v}" for k, v in rep["constants"].items() if v is not None)
        )
        for c in rep["conditions"]:
            est = ", ".join(f"{k}={v}" for k, v in c["estimates"].items())
            lines.append(f"  {c['name']:<28} {c['verdict']:<14} {est}")
    for name, vals in (doc.get("diagnostics") or {}).items():
        lines.append(f"diagnostic {name}: {vals}")
    timings = (doc.get("meta") or {}).get("timings_s")
    if timings:
        lines.append("timings: " + ", ".join(f"{k} {v:.3f} s" for k, v in timings.items()))
    return "".join(line + "\n" for line in lines)


def _cmd_report(args) -> int:
    p = Path(args.summary)
    if p.is_dir():
        p = p / "summary.json"
    try:
        doc = json.loads(p.read_text())
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, not JSON
        print(f"error: {p}: {exc}", file=sys.stderr)
        return 1
    if not isinstance(doc, dict) or type(doc.get("schema_version")) is not int:
        why = "no integer schema_version"
    elif not isinstance(doc.get("ensemble"), dict):
        why = "no ensemble object"
    else:
        try:
            text = _render(doc)
            why = None
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            why = f"{type(exc).__name__}: {exc}"
    if why is not None:
        print(f"error: {p}: not a trapcheck summary ({why})", file=sys.stderr)
        return 1
    print(text, end="")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="trapcheck",
        description="Simulate stochastic-approximation ensembles and check "
        "non-convergence conditions at unstable equilibria.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("simulate", "run the ensemble and write summary.json"),
        ("check", "run ensemble, hypothesis checks, and diagnostics"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--json", action="store_true", help="print the summary JSON")

    p = sub.add_parser("spectral", help="classify a Jacobian matrix")
    p.add_argument("matrix", help="inline JSON (e.g. '[[1,0],[0,-2]]') or a file path")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("report", help="render an existing summary.json")
    p.add_argument("summary", help="summary.json path or its directory")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # a usage error exits 2, the code of a failed check
        raise SystemExit(1 if exc.code == 2 else exc.code) from None
    if args.command in ("simulate", "check"):
        return _cmd_experiment(args, with_checks=args.command == "check")
    if args.command == "spectral":
        return _cmd_spectral(args)
    return _cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
