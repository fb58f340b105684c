"""One trapcheck invocation in a fresh interpreter, as the benchmark runs it.

    python3 invoke.py --src <dir> --record <file> [--spans <file>] [--setup-only]
                      -- <trapcheck arguments>

Imports ``trapcheck`` from ``--src`` and calls ``trapcheck.cli.main`` with the
arguments after ``--`` (``python -m trapcheck.cli`` would warn, because the
package ``__init__`` imports ``cli``).  Writes a JSON record with the
CLOCK_MONOTONIC marks the parent compares with its spawn time: import start
and end, and the moment the config was parsed.  ``--setup-only`` exits at
that moment.

With ``--spans`` the public functions of every module are wrapped, and each
call becomes a span ``[name, start, end, parent, attrs]`` kept in memory and
written to that file when ``main`` returns.  Only this process is traced:
pool workers that ``engine.monte_carlo`` starts are not.
"""

import time

_T_START = time.monotonic()

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402


class Tracer:
    """In-memory spans around the calls into each trapcheck module."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self._flow_depth = 0

    def wrap(self, name, fn, attrs=None, flow=False, only_in_flow=False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # the model field runs every engine step; only its calls made by
            # the flow diagnostics are of interest, and only those are spans
            if only_in_flow and not self._flow_depth:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            self._flow_depth += flow
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._flow_depth -= flow
                stack.pop()
                spans[sid] = [name, t0, t1, parent, None]
            if attrs is not None:
                spans[sid][4] = attrs(args, kwargs, out)
            return out

        return traced

    def install(self):
        from trapcheck import cli, engine, flow, hypotheses, models, sequences, spectral

        def patch(owner, attr, name, **kw):
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), **kw))

        patch(engine, "monte_carlo", "engine.monte_carlo", attrs=_monte_carlo_attrs)
        patch(engine, "run", "engine.run", attrs=_run_attrs)
        for cls in vars(models).values():
            if inspect.isclass(cls) and issubclass(cls, models.Model):
                if "step_parts" in vars(cls):
                    patch(cls, "step_parts", "models.step_parts")
                if "field" in vars(cls):
                    patch(cls, "field", "models.field", attrs=_field_attrs, only_in_flow=True)
        for attr in hypotheses.__all__:
            if attr.startswith("check_"):
                patch(hypotheses, attr, f"hypotheses.{attr}")
        for attr in flow.__all__:
            if inspect.isfunction(getattr(flow, attr)):
                patch(flow, attr, f"flow.{attr}", flow=True)
        patch(sequences, "rate_constants", "sequences.rate_constants")
        patch(spectral, "split_jacobian", "spectral.split_jacobian")
        patch(cli, "run_experiment", "cli.run_experiment")
        patch(cli, "canonical_json", "cli.canonical_json")
        for mod in (engine, flow):
            for cls in vars(mod).values():
                if inspect.isclass(cls) and "to_csv" in vars(cls):
                    patch(cls, "to_csv", "cli.to_csv")


def _monte_carlo_attrs(args, kwargs, summary):
    captured = (
        summary.captured_states, summary.captured_g, summary.captured_eps,
        summary.captured_rem,
    )
    return {
        "run_steps": summary.N * summary.n_runs,
        "capture_bytes": sum(a.nbytes for a in captured if a is not None),
    }


def _run_attrs(args, kwargs, traj):
    return {"run_steps": traj.N}


def _field_attrs(args, kwargs, out):
    return {"rows": math.prod(args[1].shape[:-1])}


def main(argv):
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    src = opts[opts.index("--src") + 1]
    record_path = opts[opts.index("--record") + 1]
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts else None
    record = {"start": _T_START}

    sys.path.insert(0, src)
    record["import_start"] = time.monotonic()
    import trapcheck
    import trapcheck.cli as cli

    record["import_end"] = time.monotonic()
    record["trapcheck_file"] = trapcheck.__file__
    record["versions"] = {m: sys.modules[m].__version__ for m in ("numpy", "scipy")}

    tracer = Tracer() if spans_path else None
    if tracer:
        tracer.install()

    def write_record():
        with open(record_path, "w") as fh:
            json.dump(record, fh)

    load = cli.ExperimentConfig.load

    def timed_load(path):
        config = load(path)
        record["config_parsed"] = time.monotonic()
        if "--setup-only" in opts:
            write_record()
            raise SystemExit(0)
        return config

    cli.ExperimentConfig.load = staticmethod(timed_load)
    code = cli.main(cli_args)
    record["exit_code"] = code
    if tracer:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))
    write_record()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
