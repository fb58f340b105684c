"""Command-line interface and experiment orchestration.

Subcommands
-----------
``simulate``  run the ensemble and write ``summary.json`` (no checks)
``check``     full pipeline: simulate -> hypothesis checks -> diagnostics -> report
``spectral``  classify a matrix (block split, mu, coercivity constant)
``report``    render an existing ``summary.json`` as text

Exit codes: 0 all requested checks pass or are inconclusive, 2 some check
failed (or the spectral classification cannot certify instability), 1 runtime
or configuration error.

Everything that can vary between identical reruns (timestamps, worker count)
lives under the ``meta`` key of ``summary.json``; the rest of the file is
byte-stable for a fixed config and seed, for any worker count.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import engine, flow, hypotheses, models, sequences, spectral
from .errors import AmbiguousSpectrumError, ConfigError, TrapcheckError

__all__ = [
    "ExperimentConfig",
    "run_experiment",
    "canonical_json",
    "config_hash",
    "main",
]

SCHEMA_VERSION = 1

#: Hard cap on contiguous increment-capture windows (memory guard).
_MAX_CONTIGUOUS_WINDOW = 20_000


_ARRAY = (list, tuple)  # a JSON array, or a tuple from a programmatic caller
_JSON_TYPE_NAMES = {dict: "an object", _ARRAY: "an array", str: "a string"}


def _typed(value, kind: type, path: str):
    """``value`` if it has JSON type ``kind``, else a ConfigError at ``path``."""
    if not isinstance(value, kind):
        raise ConfigError(f"must be {_JSON_TYPE_NAMES[kind]}, got {value!r}", path)
    return value


def _number(value, path: str) -> float:
    """A JSON number (booleans are not numbers) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"must be a number, got {value!r}", path)
    return float(value)


def _integer(value, path: str, lo: Optional[int] = None) -> int:
    """A JSON integer (>= ``lo`` if given); integral floats such as ``2e4``
    count."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"must be an integer, got {value!r}", path)
    if lo is not None and value < lo:
        raise ConfigError(f"must be >= {lo}, got {value}", path)
    return value


def _positive(value, path: str) -> float:
    """A positive finite JSON number."""
    x = _number(value, path)
    if not 0 < x < np.inf:
        raise ConfigError(f"must be positive and finite, got {value!r}", path)
    return x


def _nonnegative(value, path: str) -> float:
    """A non-negative finite JSON number."""
    x = _number(value, path)
    if not 0 <= x < np.inf:
        raise ConfigError(f"must be non-negative and finite, got {value!r}", path)
    return x


def _finite(value, path: str) -> float:
    """A finite JSON number."""
    x = _number(value, path)
    if not np.isfinite(x):
        raise ConfigError(f"must be finite, got {value!r}", path)
    return x


def _moment_exponent(value, path: str) -> float:
    """A finite JSON number above 2 (the moment conditions need a > 2)."""
    x = _number(value, path)
    if not 2 < x < np.inf:
        raise ConfigError(f"moment exponent must exceed 2 and be finite, got {value!r}", path)
    return x


def _count(value, path: str) -> int:
    return _integer(value, path, lo=1)


def _boolean(value, path: str) -> bool:
    """A JSON boolean (``0``, ``"no"`` and the like are not booleans)."""
    if not isinstance(value, bool):
        raise ConfigError(f"must be true or false, got {value!r}", path)
    return value


def _known(obj: dict, fields, path: str) -> dict:
    """``obj`` if every key is one of ``fields``, else a ConfigError at the
    first unknown key."""
    for key in obj:
        if key not in fields:
            raise ConfigError("unknown field", f"{path}.{key}" if path else str(key))
    return obj


def _one_of(*options):
    def parse(value, path: str):
        if isinstance(value, bool) or value not in options:
            raise ConfigError(f"must be one of {', '.join(options)}, got {value!r}", path)
        return value

    return parse


#: Each check's optional parameters and the parser that checks one; the
#: pipeline reads the parsed values.
_CHECK_PARAMS = {
    "noise_excitation": {"k": _count, "a": _moment_exponent, "threshold": _nonnegative},
    "remainder": {"mode": _one_of("square_summable", "split_r"), "nu": _positive},
    "drift_sign": {
        "rho": _positive,
        "mode": _one_of("nonneg", "coercive"),
        "beta": _finite,
        "adapted": _boolean,
    },
    "rate_condition": {"nu": _positive},
    "jump_moments": {"a": _moment_exponent, "k": _count},
    "tail_noise": {"nu": _positive},
}
_DIAGNOSTIC_PARAMS = {
    "apt": {"T": _positive, "n_restarts": _count, "normalization": _one_of("scale", "absolute")},
    "manifold_rate": {},
}


def _entry(value, path: str, params: dict, kind: str, extra=()) -> dict:
    """A check or diagnostic object with a known name and no keys but
    ``name``, ``extra`` and its parameters; the parameters are parsed and
    ``extra`` keys kept as given."""
    name = _typed(value, dict, path).get("name")
    if not isinstance(name, str) or name not in params:
        raise ConfigError(f"unknown {kind} {name!r}", f"{path}.name")
    _known(value, ("name", *extra, *params[name]), path)
    out = dict(value)
    for key, parse in params[name].items():
        if key in value:
            out[key] = parse(value[key], f"{path}.{key}")
    return out


#: The keys a config may hold at the top level and in ``output``.
_FIELDS = (
    "model", "schedule", "N", "n_runs", "master_seed", "x0", "checks", "diagnostics",
    "theorem", "rate_window", "near_trap_radius", "max_blowup_fraction", "output",
)
_OUTPUT_FIELDS = ("dir", "trajectories", "write_diagnostics")


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
    return hashlib.sha256(compact.encode()).hexdigest()


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
    x0: Optional[list] = None
    checks: tuple = ()
    diagnostics: tuple = ()
    theorem: Optional[str] = None
    rate_window: Optional[tuple] = None
    near_trap_radius: float = 1e-2
    max_blowup_fraction: float = 0.5
    output: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    @staticmethod
    def from_dict(cfg: dict) -> "ExperimentConfig":
        if not isinstance(cfg, dict):
            raise ConfigError("must be a JSON object", "config")
        _known(cfg, _FIELDS, "")
        for key in ("model", "schedule", "N", "n_runs"):
            if key not in cfg:
                raise ConfigError("missing required field", key)
        if "master_seed" not in cfg:
            raise ConfigError(
                "missing required field (wall-clock seeding is not allowed)",
                "master_seed",
            )
        model = _typed(cfg["model"], dict, "model")
        schedule = dict(_typed(cfg["schedule"], dict, "schedule"))
        if "horizon" in schedule:
            schedule["horizon"] = _integer(schedule["horizon"], "schedule.horizon", lo=1)
        N = _integer(cfg["N"], "N", lo=1)
        n_runs = _integer(cfg["n_runs"], "n_runs", lo=1)
        master_seed = _integer(cfg["master_seed"], "master_seed", lo=0)
        x0 = cfg.get("x0")
        if x0 is not None:
            for i, v in enumerate(_typed(x0, _ARRAY, "x0")):
                _number(v, f"x0[{i}]")
        checks = []
        for i, c in enumerate(_typed(cfg.get("checks", []), _ARRAY, "checks")):
            c = _entry(c, f"checks[{i}]", _CHECK_PARAMS, "check", extra=("window",))
            if c.get("window") is not None:
                c["window"] = _window(c["window"], 0, N, f"checks[{i}].window")
            checks.append(c)
        diags = tuple(
            _entry(dg, f"diagnostics[{i}]", _DIAGNOSTIC_PARAMS, "diagnostic")
            for i, dg in enumerate(_typed(cfg.get("diagnostics", []), _ARRAY, "diagnostics"))
        )
        theorem = cfg.get("theorem")
        if theorem is not None and theorem not in hypotheses.THEOREM_IDS:
            raise ConfigError(f"unknown theorem id {theorem!r}", "theorem")
        rw = cfg.get("rate_window")
        if rw is not None:
            rw = _window(rw, 1, N, "rate_window")
        radius = _positive(cfg.get("near_trap_radius", 1e-2), "near_trap_radius")
        max_blowup = _number(cfg.get("max_blowup_fraction", 0.5), "max_blowup_fraction")
        if not 0 <= max_blowup <= 1:
            raise ConfigError(f"must lie in [0, 1], got {max_blowup!r}", "max_blowup_fraction")
        output = _known(_typed(cfg.get("output", {}), dict, "output"), _OUTPUT_FIELDS, "output")
        if "trajectories" in output:
            _integer(output["trajectories"], "output.trajectories", lo=0)
        if "dir" in output:
            _typed(output["dir"], str, "output.dir")
        if "write_diagnostics" in output:
            _boolean(output["write_diagnostics"], "output.write_diagnostics")
        return ExperimentConfig(
            model=dict(model),
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
            max_blowup_fraction=max_blowup,
            output=dict(output),
            raw=dict(cfg),
        )

    @staticmethod
    def load(path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON at line {exc.lineno}: {exc.msg}", str(path))
        except OSError as exc:
            raise ConfigError(str(exc), str(path))
        return ExperimentConfig.from_dict(cfg)


def _build_model(spec: dict) -> models.Model:
    kind = spec.get("kind")

    def required(key):
        if key not in spec:
            raise ConfigError("required field is missing", f"model.{key}")
        return spec[key]

    def integer(key, default):
        return _integer(spec.get(key, default), f"model.{key}")

    try:
        if kind == "linear":
            return models.LinearModel(
                spec.get("H", [[1.0]]),
                noise_kind=spec.get("noise", "rademacher"),
                remainder_kind=spec.get("remainder", "none"),
                unstable_dims=integer("unstable_dims", 1),
                id=spec.get("id"),
            )
        if kind == "synthetic":
            return models.SyntheticModel(
                mu=float(spec.get("mu", -1.0)),
                nu=float(spec.get("nu", 1.0)),
                dim=integer("dim", 2),
                delta_plus=integer("delta_plus", 1),
            )
        if kind in ("vrrw_walk", "vrrw_meanfield"):
            d = _integer(required("d"), "model.d")
            alpha = float(required("alpha"))
            counts = spec.get("initial_counts")
            if spec.get("graph", "complete") == "complete":
                cfg = models.VrrwConfig.complete(d, alpha, counts)
            else:
                cfg = models.VrrwConfig(
                    d=d,
                    alpha=alpha,
                    A=np.asarray(required("A"), dtype=np.float64),
                    initial_counts=tuple(counts or (1,) * d),
                )
            if kind == "vrrw_walk":
                return models.VrrwWalkModel(cfg, start_vertex=integer("start_vertex", 0))
            return models.MeanFieldVrrwModel(cfg)
        if kind == "control":
            which = spec.get("which")
            table = models.control_models()
            if which not in table:
                raise ConfigError(
                    f"unknown control {which!r}; options: {sorted(table)}", "model.which"
                )
            return table[which]
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc), "model") from exc
    raise ConfigError(f"unknown model kind {kind!r}", "model.kind")


def _build_schedule(spec: dict, model: models.Model, N: int) -> sequences.Schedule:
    spec = dict(spec)
    spec.setdefault("horizon", N)
    if spec["horizon"] < N:
        raise ConfigError(f"horizon {spec['horizon']} < N={N}", "schedule.horizon")
    if spec.get("kind") == "natural":
        if not hasattr(model, "natural_schedule"):
            raise ConfigError(
                f"model {model.id} has no natural schedule", "schedule.kind"
            )
        return model.natural_schedule(spec["horizon"])
    try:
        return sequences.Schedule.from_config(spec)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc), "schedule") from exc


# ---------------------------------------------------------------------------
# capture planning
# ---------------------------------------------------------------------------


def _diag_state_grid(N: int, n_points: int = 1024) -> np.ndarray:
    return np.unique(np.geomspace(1, N, min(n_points, N)).astype(np.int64))


def _capture_plan(config: ExperimentConfig, with_checks: bool):
    """Derive which states/increments the ensemble must retain, and which
    runs it must keep in full (for trajectory-based checks and the CSVs)."""
    N = config.N
    state_idx: set = set()
    inc_idx: set = set()
    full_runs = set(range(min(int(config.output.get("trajectories", 0)), config.n_runs)))
    if config.output.get("write_diagnostics") and config.diagnostics:
        full_runs.add(0)
    if not with_checks:
        return engine.CaptureSpec(full_runs=tuple(sorted(full_runs)))
    if config.diagnostics:
        state_idx.update(_diag_state_grid(N).tolist())
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
            lo = max(lo, hi - _MAX_CONTIGUOUS_WINDOW)
            inc_idx.update(range(lo, min(hi, N)))
        elif name in ("remainder", "drift_sign"):
            full_runs.add(0)
    return engine.CaptureSpec(
        state_indices=tuple(sorted(state_idx)),
        increment_indices=tuple(sorted(inc_idx)),
        full_runs=tuple(sorted(full_runs)),
    )


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def _resolve_split_and_constants(model: models.Model):
    """Numeric split at the declared trap, plus effective (mu, nu).

    Declared model constants take precedence over the numeric split: models
    that declare them derive the values exactly, and degenerate spectra (for
    which the numeric split sees only the center block) would otherwise
    misreport the contraction rate.  The numeric split is still returned for
    projections when it certifies repulsive directions.
    """
    trap = model.trap
    if trap is None:
        return None, None, None
    split = None
    try:
        split = spectral.split_jacobian(np.asarray(trap.jacobian, dtype=np.float64))
    except (AmbiguousSpectrumError, TrapcheckError):
        split = None
    mu = trap.mu
    if mu is None and split is not None:
        mu = split.mu
    return split, mu, trap.nu


def _run_checks(config, model, schedule, summary, rates, split, mu_eff, nu_eff):
    conds = []
    a_used, k_used = None, None
    for c in config.checks:
        name = c["name"]
        window = c.get("window")
        if name == "noise_excitation":
            k = c.get("k", 1)
            a = c.get("a", 4.0)
            k_used = max(k_used or 0, k)
            a_used = a
            use_split = split if (split is not None and split.delta_plus >= 1) else None
            conds.append(
                hypotheses.check_noise_excitation(
                    summary,
                    split=use_split,
                    k=k,
                    a=a,
                    window=window,
                    threshold=c.get("threshold", hypotheses.DEFAULT_EXCITATION_THRESHOLD),
                )
            )
        elif name == "remainder":
            conds.append(
                hypotheses.check_remainder(
                    summary.trajectory(0),
                    mode=c.get("mode", "square_summable"),
                    nu=c.get("nu", nu_eff or 1.0),
                    window=window,
                    schedule=schedule,
                )
            )
        elif name == "drift_sign":
            x_star = (
                model.trap.x_star if model.trap is not None else np.zeros(model.dim)
            )
            adapted = None
            project = None
            if c.get("adapted") and split is not None and split.delta_plus >= 1:
                # the adapted form lives on the repulsive block, so the
                # vectors must be projected into its coordinates first
                adapted = spectral.adapted_inner_product(split.H_plus)
                project = split.P_inv[: split.delta_plus]
            conds.append(
                hypotheses.check_drift_sign(
                    summary.trajectory(0),
                    x_star,
                    rho=c.get("rho", 1.0),
                    mode=c.get("mode", "nonneg"),
                    beta=c.get("beta", 0.0),
                    window=window,
                    adapted=adapted,
                    project=project,
                )
            )
        elif name == "rate_condition":
            nu = c.get("nu", nu_eff)
            if nu is None:
                raise ConfigError("rate_condition needs nu (config or model)", "checks")
            ref = split if (split is not None and mu_eff is None) else float(mu_eff)
            conds.append(hypotheses.check_rate_condition(rates, ref, float(nu)))
        elif name == "jump_moments":
            a = c.get("a", 4.0)
            a_used = a
            conds.append(
                hypotheses.check_jump_moments(summary, a=a, schedule=schedule, window=window)
            )
        elif name == "tail_noise":
            if split is None:
                conds.append(
                    hypotheses.ConditionResult(
                        "tail_noise_smallness",
                        "inconclusive",
                        {"reason": "no admissible split at the trap"},
                        None,
                    )
                )
            else:
                nu = c.get("nu", nu_eff or 1.0)
                conds.append(
                    hypotheses.check_tail_noise_condition(
                        summary, split, nu, schedule, window=window
                    )
                )
    return conds, a_used, k_used


def _x0_of(config: ExperimentConfig, model: models.Model) -> np.ndarray:
    if config.x0 is not None:
        x0 = np.asarray(config.x0, dtype=np.float64)
        if x0.shape != (model.dim,):
            raise ConfigError(f"x0 must have dimension {model.dim}", "x0")
        return x0
    return model.initial_state()


def _run_diagnostics(config, model, schedule, summary, split):
    out = {}
    for dg in config.diagnostics:
        name = dg["name"]
        if name == "apt":
            res = flow.ensemble_apt_deficit(
                summary,
                schedule,
                model.field,
                T=dg.get("T", 1.0),
                normalization=dg.get("normalization", "scale"),
                n_restarts=dg.get("n_restarts", 48),
            )
            out["apt"] = {
                "median_rate": res.median,
                "n_rates": int(np.isfinite(res.rates).sum()),
                "n_excluded_restarts": res.n_excluded,
            }
        elif name == "manifold_rate":
            use_split = split if (split is not None and 1 <= split.delta_plus < model.dim) else None
            K = model.manifold_K
            if use_split is None and K is None:
                out["manifold_rate"] = {"error": "model declares no invariant set"}
                continue
            res = flow.ensemble_manifold_rate(
                summary,
                schedule,
                K=K if use_split is None else None,
                split=use_split,
                x_star=model.trap.x_star if model.trap is not None else None,
            )
            out["manifold_rate"] = {
                "median_rate": res.median,
                "n_rates": int(np.isfinite(res.rates).sum()),
            }
    return out


def run_experiment(
    config: ExperimentConfig,
    workers: int = 1,
    out_dir=None,
    with_checks: bool = True,
) -> tuple[int, dict]:
    """Execute a config end to end; returns (exit_code, summary dict) and
    writes ``summary.json`` (plus optional trajectory/diagnostic CSVs).

    ``meta.timings_s`` holds the wall seconds of each stage that ran:
    ``simulate`` (building the model and the ensemble), ``checks`` and
    ``diagnostics`` (the ensemble ones; ``check`` only), and ``io`` (the
    CSVs, with the kept run's diagnostic paths; ``summary.json`` is written
    after it).
    """
    marks = [time.perf_counter()]

    def lap() -> float:
        """Seconds since the previous lap, or since the start."""
        marks.append(time.perf_counter())
        return marks[-1] - marks[-2]

    timings = {}
    model = _build_model(config.model)
    schedule = _build_schedule(config.schedule, model, config.N)
    x0 = _x0_of(config, model)
    capture = _capture_plan(config, with_checks)

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

    exit_code = 0
    if with_checks:
        lo = config.rate_window[0] if config.rate_window else max(10, config.N // 100)
        hi = config.rate_window[1] if config.rate_window else config.N
        if not lo < hi:
            raise ConfigError(
                f"default rate window ({lo}, {hi}) is empty; set rate_window or N > {lo}",
                "N",
            )
        rates = sequences.rate_constants(schedule, (lo, hi))
        split, mu_eff, nu_eff = _resolve_split_and_constants(model)
        doc["rates"] = rates.to_dict()
        doc["split"] = split.to_dict() if split is not None else None
        conds, a_used, k_used = _run_checks(
            config, model, schedule, summary, rates, split, mu_eff, nu_eff
        )
        theorem = config.theorem or (
            "th5d"
            if any(c["name"] == "rate_condition" for c in config.checks)
            else "th2n"
        )
        report = hypotheses.HypothesisReport(
            theorem_id=theorem,
            conditions=tuple(conds),
            constants=hypotheses.make_constants(
                lambda_hat=rates.lambda_hat,
                mu=mu_eff,
                nu=nu_eff,
                a=a_used,
                excitation_k=k_used,
            ),
        )
        doc["report"] = report.to_dict()
        timings["checks"] = lap()
        doc["diagnostics"] = _run_diagnostics(config, model, schedule, summary, split)
        timings["diagnostics"] = lap()
        if report.verdict == "fail":
            exit_code = 2

    out = Path(out_dir if out_dir is not None else config.output.get("dir", "trapcheck_out"))
    out.mkdir(parents=True, exist_ok=True)
    n_traj = int(config.output.get("trajectories", 0))
    for i in range(min(n_traj, config.n_runs)):
        tdir = out / "trajectories"
        tdir.mkdir(exist_ok=True)
        summary.trajectory(i).to_csv(tdir / f"run_{i}.csv")
    if config.output.get("write_diagnostics") and config.diagnostics:
        ddir = out / "diagnostics"
        ddir.mkdir(exist_ok=True)
        path = flow.time_change(
            summary.trajectory(0), schedule, indices=_diag_state_grid(config.N)
        )
        for dg in config.diagnostics:
            if dg["name"] == "apt":
                flow.apt_deficit(
                    path, model.field, T=dg.get("T", 1.0),
                    normalization=dg.get("normalization", "scale"),
                ).to_csv(ddir / "apt.csv")
            elif dg["name"] == "manifold_rate" and model.manifold_K is not None:
                flow.manifold_rate(path, K=model.manifold_K).to_csv(
                    ddir / "manifold_rate.csv"
                )

    timings["io"] = lap()
    doc_meta = dict(doc)
    doc_meta["meta"] = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "workers": int(workers),
        "timings_s": timings,
    }
    (out / "summary.json").write_text(canonical_json(doc_meta))
    return exit_code, doc_meta


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_experiment(args, with_checks: bool) -> int:
    try:
        if args.workers < 1:
            raise ConfigError(f"must be >= 1, got {args.workers}", "workers")
        config = ExperimentConfig.load(args.config)
        if args.seed is not None:
            raw = dict(config.raw)
            raw["master_seed"] = int(args.seed)
            config = ExperimentConfig.from_dict(raw)
        code, doc = run_experiment(
            config,
            workers=args.workers,
            out_dir=args.out,
            with_checks=with_checks,
        )
    except TrapcheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(canonical_json(doc), end="")
    else:
        ens = doc["ensemble"]
        print(
            f"{ens['model_id']}: {ens['n_runs']} runs, N={ens['N']}, "
            f"near-trap fraction {ens['near_trap_fraction']:.4g} "
            f"(radius {ens['near_trap_radius']:g}), blowups {ens['blowup_count']}"
        )
        if doc.get("report"):
            print(_report_text(doc["report"]))
        for name, vals in (doc.get("diagnostics") or {}).items():
            print(f"diagnostic {name}: {vals}")
    return code


def _parse_matrix(token: str) -> np.ndarray:
    try:
        return np.asarray(json.loads(token), dtype=np.float64)
    except (json.JSONDecodeError, ValueError):
        pass
    p = Path(token)
    if not p.exists():
        raise ConfigError(f"not inline JSON and no such file: {token}", "matrix")
    text = p.read_text()
    try:
        return np.asarray(json.loads(text), dtype=np.float64)
    except (json.JSONDecodeError, ValueError):
        return np.atleast_2d(np.loadtxt(p, delimiter=","))


def _cmd_spectral(args) -> int:
    try:
        H = _parse_matrix(args.matrix)
        split = spectral.split_jacobian(H)
    except AmbiguousSpectrumError as exc:
        print(f"ambiguous spectrum: {exc}", file=sys.stderr)
        return 2
    except (TrapcheckError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
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


def _report_text(rep: dict) -> str:
    lines = [
        f"theorem: {rep['theorem_id']}    overall: {rep['verdict']}",
        "constants: "
        + ", ".join(f"{k}={v}" for k, v in rep["constants"].items() if v is not None),
    ]
    for c in rep["conditions"]:
        est = ", ".join(f"{k}={v}" for k, v in c["estimates"].items())
        lines.append(f"  {c['name']:<28} {c['verdict']:<14} {est}")
    return "\n".join(lines)


def _cmd_report(args) -> int:
    p = Path(args.summary)
    if p.is_dir():
        p = p / "summary.json"
    try:
        doc = json.loads(p.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ens = doc.get("ensemble", {})
    print(
        f"model {ens.get('model_id')}: {ens.get('n_runs')} runs, N={ens.get('N')}, "
        f"near-trap fraction {ens.get('near_trap_fraction')}, "
        f"blowups {ens.get('blowup_count')}"
    )
    print(f"config hash: {doc.get('config_hash')}")
    if doc.get("rates"):
        r = doc["rates"]
        print(
            f"rates: lambda_hat={r['lambda_hat']:.6g} "
            f"ratio window [{r['ratio_inf']:.6g}, {r['ratio_sup']:.6g}]"
        )
    if doc.get("report"):
        print(_report_text(doc["report"]))
    for name, vals in (doc.get("diagnostics") or {}).items():
        print(f"diagnostic {name}: {vals}")
    timings = (doc.get("meta") or {}).get("timings_s")
    if timings:
        print("timings: " + ", ".join(f"{k} {v:.3f} s" for k, v in timings.items()))
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

    args = parser.parse_args(argv)
    if args.command == "simulate":
        return _cmd_experiment(args, with_checks=False)
    if args.command == "check":
        return _cmd_experiment(args, with_checks=True)
    if args.command == "spectral":
        return _cmd_spectral(args)
    return _cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
