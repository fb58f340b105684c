"""Per-layer metrics of the traced run, computed from the spans that
``invoke.py`` records, and the end-to-end metric each one should move.

``LAYER_METRICS`` is the list the traced run reports, in order; its names
and units must equal the ``per_layer`` list of ``BENCHMARK.json`` (the smoke
mode checks this).  ``moves`` says which end-to-end metric a change in the
layer should move, and on which workloads; elsewhere the prediction is no
change.

Spans from pool workers are not visible to the traced process, so for a
workload run with ``workers > 1`` the split inside ``engine.monte_carlo``
(``engine.monte_carlo*`` and ``models.*``) comes from a traced replay of
the same input at ``workers=1``.
"""

from __future__ import annotations

from collections import defaultdict

# metric name -> the hypotheses function it times
CHECKS = {
    "noise_excitation": "check_noise_excitation",
    "remainder": "check_remainder",
    "rate_condition": "check_rate_condition",
    "jump_moments": "check_jump_moments",
    "tail_noise": "check_tail_noise_condition",
}
FLOW_DIAGNOSTICS = (
    "ensemble_apt_deficit", "ensemble_manifold_rate", "apt_deficit", "manifold_rate",
)

# (name, unit, moves)
_ENSEMBLE = "wall_s, run_steps_per_s on saddle_check and linear_simulate"
LAYER_METRICS = [
    ("engine.monte_carlo_s", "s", _ENSEMBLE),
    ("engine.monte_carlo_self_s", "s", _ENSEMBLE),
    ("engine.pool_overhead_s", "s", "wall_s on linear_simulate; 0 elsewhere"),
    ("engine.run_calls", "count", "wall_s on vrrw_check; 0 elsewhere"),
    ("engine.run_s", "s", "wall_s on vrrw_check; 0 elsewhere"),
    ("engine.run_steps", "count", "run_steps_per_s on every workload"),
    ("engine.capture_mb", "MB", "peak_rss_mb on vrrw_check"),
    ("models.step_parts_calls", "count", "wall_s on every workload, most on vrrw_check"),
    ("models.step_parts_s", "s", "wall_s on every workload, most on vrrw_check"),
    ("models.step_parts_us", "us", "wall_s on every workload, most on vrrw_check"),
    ("sequences.rate_constants_s", "s", "wall_s on vrrw_check and saddle_check"),
    ("spectral.split_jacobian_calls", "count", "wall_s on vrrw_check and saddle_check"),
    ("spectral.split_jacobian_s", "s", "wall_s on vrrw_check and saddle_check"),
]
LAYER_METRICS += [
    (f"hypotheses.{c}_s", "s", "wall_s on vrrw_check; near 0 on saddle_check") for c in CHECKS
]
LAYER_METRICS += [
    ("hypotheses.checks_s", "s", "wall_s on vrrw_check; near 0 on saddle_check"),
]
LAYER_METRICS += [
    (f"flow.{d}_s", "s", "wall_s on saddle_check and vrrw_check; 0 on linear_simulate")
    for d in FLOW_DIAGNOSTICS
]
LAYER_METRICS += [
    ("flow.field_calls", "count", "wall_s on saddle_check and vrrw_check; 0 on linear_simulate"),
    ("flow.field_rows", "count", "wall_s on saddle_check and vrrw_check; 0 on linear_simulate"),
    ("cli.import_s", "s", "setup_s on every workload"),
    ("cli.run_experiment_s", "s", "wall_s on every workload"),
    ("cli.self_s", "s", "wall_s on every workload"),
    ("cli.canonical_json_s", "s", "wall_s on every workload"),
    ("cli.csv_write_s", "s", "wall_s on vrrw_check; 0 elsewhere"),
    ("cli.artifact_bytes", "bytes", "wall_s on vrrw_check"),
    ("trace.overhead_s", "s", "none: the cost of tracing itself"),
]

# metrics that a workers=1 replay supplies when the traced run uses a pool
REPLAYED = (
    "engine.monte_carlo_s",
    "engine.monte_carlo_self_s",
    "models.step_parts_calls",
    "models.step_parts_s",
    "models.step_parts_us",
)


def invocation_metrics(spans: list, record: dict) -> dict:
    """Layer metrics of one traced invocation.

    The trace-level figures (``engine.pool_overhead_s``,
    ``cli.artifact_bytes``, ``trace.overhead_s``) need more than one
    invocation and are filled in by the caller.
    """
    dur = [s[2] - s[1] for s in spans]
    total = defaultdict(float)
    calls = defaultdict(int)
    children = defaultdict(float)  # summed duration of each span's direct children
    for i, (name, _, _, parent, _) in enumerate(spans):
        total[name] += dur[i]
        calls[name] += 1
        if parent >= 0:
            children[parent] += dur[i]

    def attr_sum(name, key):
        return sum(s[4][key] for s in spans if s[0] == name and s[4] is not None)

    step_parts_in_mc = sum(
        dur[i]
        for i, s in enumerate(spans)
        if s[0] == "models.step_parts" and s[3] >= 0 and spans[s[3]][0] == "engine.monte_carlo"
    )
    run_experiment_self = sum(
        dur[i] - children[i] for i, s in enumerate(spans) if s[0] == "cli.run_experiment"
    )
    sp_calls = calls["models.step_parts"]
    m = {
        "engine.monte_carlo_s": total["engine.monte_carlo"],
        "engine.monte_carlo_self_s": total["engine.monte_carlo"] - step_parts_in_mc,
        "engine.run_calls": calls["engine.run"],
        "engine.run_s": total["engine.run"],
        "engine.run_steps": attr_sum("engine.monte_carlo", "run_steps")
        + attr_sum("engine.run", "run_steps"),
        "engine.capture_mb": attr_sum("engine.monte_carlo", "capture_bytes") / 1e6,
        "models.step_parts_calls": sp_calls,
        "models.step_parts_s": total["models.step_parts"],
        "models.step_parts_us": 1e6 * total["models.step_parts"] / sp_calls if sp_calls else 0.0,
        "sequences.rate_constants_s": total["sequences.rate_constants"],
        "spectral.split_jacobian_calls": calls["spectral.split_jacobian"],
        "spectral.split_jacobian_s": total["spectral.split_jacobian"],
        "hypotheses.checks_s": sum(
            (v for k, v in total.items() if k.startswith("hypotheses.check_")), 0.0
        ),
        "flow.field_calls": calls["models.field"],
        "flow.field_rows": attr_sum("models.field", "rows"),
        "cli.import_s": record["import_end"] - record["import_start"],
        "cli.run_experiment_s": total["cli.run_experiment"],
        "cli.self_s": run_experiment_self,
        "cli.canonical_json_s": total["cli.canonical_json"],
        "cli.csv_write_s": total["cli.to_csv"],
    }
    for c, fn in CHECKS.items():
        m[f"hypotheses.{c}_s"] = total[f"hypotheses.{fn}"]
    for d in FLOW_DIAGNOSTICS:
        m[f"flow.{d}_s"] = total[f"flow.{d}"]
    return m
