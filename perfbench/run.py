"""trapcheck benchmark: end-to-end and per-layer timings of the CLI.

    python3 perfbench/run.py --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --pin

Run from the root of a checkout.  Each invocation is ``trapcheck.cli.main``
in a fresh interpreter (``invoke.py``) on a config built from the seed, with
``trapcheck`` imported from this checkout's ``src``; invocations run one at
a time.  Before the timed loop the benchmark runs one untimed set-up probe
(it compiles the bytecode) and ``SETUP_PROBES`` timed ones that stop once
the config is parsed.  The loop then repeats the invocation while it
expects to end less than half an invocation past ``--seconds``.

Every invocation's output is checked: exit code 0, the workload's
seed-independent invariants, and a digest of ``summary.json`` without
``meta`` plus every CSV written.  All digests of one run must agree, and on
the default seed they must equal the one pinned in ``expected.json``.  A
failed check counts in ``failed``.

``--trace 0`` reports the end-to-end metrics: median wall time from spawn to
exit, median set-up time from spawn to parsed config, ensemble run-steps
per second of wall time, and the peak RSS of the largest process of an
invocation, the highest over the run (on ``saddle_check`` one invocation
peaks at 132 MB and the next at 148 MB, so a median would flip).

``--trace 1`` alternates untraced and traced invocations (plus a traced
``workers=1`` replay where the workload uses a pool) and reports the
per-layer metrics of ``layers.py``.  The last line of standard output is
the result as JSON; a fuller record goes to ``perfbench/.work``.

``--smoke`` runs every workload once, traced and untraced, at the smoke
size of ``workloads.py``, and checks the gate and that the metric names
match ``BENCHMARK.json``.
``--pin`` rewrites ``expected.json`` from the default seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
EXPECTED = HERE / "expected.json"

sys.path.insert(0, str(HERE))
from layers import LAYER_METRICS, REPLAYED, invocation_metrics  # noqa: E402
from workloads import DEFAULT_SEED, SIZES, WORKLOADS  # noqa: E402

RUN_SECONDS = 36
SETUP_PROBES = 3
MIN_INVOCATIONS = 2
#: every run must end well inside three minutes
RUN_LIMIT_S = 170.0

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "run_steps_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here (as opposed to a failed invocation)."""


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def _git_sha() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(ROOT / ".git" / ref)
        if not sha:
            for line in _read(ROOT / ".git" / "packed-refs").splitlines():
                if line.endswith(" " + ref):
                    sha = line.split()[0]
        return sha or "unknown"
    return head or "unknown"


def machine_facts(versions: dict) -> dict:
    """Read-only facts about the machine; ``versions`` are the numpy and
    scipy versions the invocations imported."""
    cpu = ""
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(idx / "level")
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(idx / "size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "cache": caches,
        "python": platform.python_version(),
        **versions,
        "git_sha": _git_sha(),
    }


# ---------------------------------------------------------------------------
# one invocation
# ---------------------------------------------------------------------------


def output_digest(out: Path):
    """sha256 of summary.json without ``meta`` and of every CSV, and the
    summary body itself."""
    doc = json.loads((out / "summary.json").read_text())
    doc.pop("meta")
    h = hashlib.sha256()
    h.update(b"summary.json\0" + json.dumps(doc, sort_keys=True, indent=2).encode())
    for p in sorted(out.rglob("*.csv")):
        h.update(b"\0" + p.relative_to(out).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest(), doc


class Runner:
    """Spawns the invocations of one benchmark run and checks each."""

    def __init__(self, workload, seed: int, size: str):
        self.w = workload
        self.dir = WORK / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps(workload.config(seed, size)))
        self.expected = None
        if seed == DEFAULT_SEED and EXPECTED.exists():
            self.expected = json.loads(EXPECTED.read_text())[size].get(workload.name)
        self.t_begin = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = []
        self.trapcheck_file = None
        self.versions = {}
        self._n = 0

    def time_left(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.t_begin)

    def spawn(self, *, workers=None, traced=False, setup_only=False) -> dict:
        """Run one invocation to its end; returns its measurements."""
        self._n += 1
        tag = f"{self._n:03d}"
        out = self.dir / f"out{tag}"
        record_path = self.dir / f"record{tag}.json"
        spans_path = self.dir / f"spans{tag}.json"
        cmd = [sys.executable, str(HERE / "invoke.py"), "--src", str(SRC)]
        cmd += ["--record", str(record_path)]
        if traced:
            cmd += ["--spans", str(spans_path)]
        if setup_only:
            cmd += ["--setup-only"]
        cmd += ["--", self.w.command, "--config", str(self.config_path), "--out", str(out)]
        cmd += ["--workers", str(workers or self.w.workers)]
        timeout = self.time_left()
        if timeout <= 0:
            raise BenchError("run time limit reached")
        with open(self.dir / f"log{tag}.txt", "w") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT, start_new_session=True
            )
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            reaped = False
            try:
                # wait4 gives the peak RSS of the child and the pool workers it waited for
                _, status, usage = os.wait4(proc.pid, 0)
                reaped = True
                wall = time.monotonic() - t0
            finally:
                timer.cancel()
                _kill_group(proc.pid)
                if not reaped:
                    os.waitpid(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        res = {"wall": wall, "rss_mb": usage.ru_maxrss * 1024 / 1e6, "exit": proc.returncode}
        self.attempted += 1
        if proc.returncode != 0 or not record_path.exists():
            return self._fail(res, f"invocation {tag} exited with {proc.returncode}")
        rec = json.loads(record_path.read_text())
        self._check_source(rec["trapcheck_file"])
        self.versions = rec["versions"]
        res["record"] = rec
        res["setup"] = rec["config_parsed"] - t0
        if traced:
            res["spans"] = json.loads(spans_path.read_text())
        if not setup_only:
            self._check_output(res, out, tag)
        return res

    def _check_source(self, path: str) -> None:
        if not Path(path).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"trapcheck imported from {path}, not from {SRC}")
        self.trapcheck_file = path

    def _check_output(self, res: dict, out: Path, tag: str) -> None:
        digest, doc = output_digest(out)
        res["digest"] = digest
        res["artifact_bytes"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        self.digests.append(digest)
        bad = self.w.invariants(doc)
        reference = self.expected or self.digests[0]
        if digest != reference:
            bad.append(f"digest {digest} != {'pinned' if self.expected else 'first'} {reference}")
        if bad:
            self._fail(res, f"invocation {tag}: " + "; ".join(bad))

    def _fail(self, res: dict, problem: str) -> dict:
        self.failed += 1
        self.problems.append(problem)
        res["failed"] = True
        return res


def _exit_on_sigterm(signum, frame):
    # unwinds through Runner.spawn, which kills and reaps the invocation
    raise SystemExit(128 + signum)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def _quartiles(xs: list) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def _good(results: list) -> list:
    return [r for r in results if not r.get("failed")]


def measure(workload, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    run = Runner(workload, seed, size)
    min_rounds = MIN_INVOCATIONS if size == "full" and not trace else 1
    run.spawn(setup_only=True)  # untimed: fills the bytecode cache
    probes = [run.spawn(setup_only=True) for _ in range(SETUP_PROBES if size == "full" else 1)]

    plain, traced, replays = [], [], []
    pooled = trace and workload.workers > 1
    deadline = time.monotonic() + seconds
    while True:
        t0 = time.monotonic()
        plain.append(run.spawn())
        if trace:
            traced.append(run.spawn(traced=True))
            if pooled:
                replays.append(run.spawn(traced=True, workers=1))
        now = time.monotonic()
        round_s = now - t0
        if len(plain) >= min_rounds and now + round_s / 2 > deadline:
            break
        if now + 1.5 * round_s > run.t_begin + RUN_LIMIT_S:
            break

    timed = _good(plain) or plain
    walls = [r["wall"] for r in timed]
    setups = [r["setup"] for r in _good(probes + plain) if "setup" in r]
    rss = [r["rss_mb"] for r in timed]
    if not setups:
        raise BenchError("no invocation reached a parsed config")
    q1, _, q3 = _quartiles(rss)
    stats = {
        "wall_s": _quartiles(walls),
        "setup_s": _quartiles(setups),
        "peak_rss_mb": (q1, max(rss), q3),
    }
    run_steps = workload.run_steps(size)
    q1, med, q3 = stats["wall_s"]
    stats["run_steps_per_s"] = (run_steps / q3, run_steps / med, run_steps / q1)
    samples = {"wall_s": len(walls), "setup_s": len(setups), "peak_rss_mb": len(rss)}
    samples["run_steps_per_s"] = len(walls)

    if trace:
        metrics = _layer_metrics(traced, replays, stats["wall_s"][1])
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
    else:
        metrics = {k: {"value": stats[k][1], "unit": u} for k, u in E2E_UNITS.items()}

    return {
        "workload": workload.name,
        "seed": seed,
        "size": size,
        "trace": int(trace),
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "digests": sorted(set(run.digests)),
        "pinned_digest": run.expected,
        "trapcheck_file": run.trapcheck_file,
        "machine": machine_facts(run.versions),
        "quartiles": stats,
        "samples": samples,
        "invocations": [
            {k: r.get(k) for k in ("wall", "setup", "rss_mb", "exit", "digest")}
            for r in probes + plain + traced + replays
        ],
        "metrics": metrics,
    }


def _layer_metrics(traced: list, replays: list, untraced_wall: float) -> dict:
    good = _good(traced)
    if not good:
        raise BenchError("no traced invocation passed its checks")
    per_inv = [invocation_metrics(r["spans"], r["record"]) for r in good]
    out = {k: statistics.median(m[k] for m in per_inv) for k in per_inv[0]}
    traced_wall = statistics.median(r["wall"] for r in good)
    out["engine.pool_overhead_s"] = 0.0
    if replays:
        good_replays = _good(replays)
        if not good_replays:
            raise BenchError("no workers=1 replay passed its checks")
        rep = [invocation_metrics(r["spans"], r["record"]) for r in good_replays]
        for k in REPLAYED:
            out[k] = statistics.median(m[k] for m in rep)
        out["engine.pool_overhead_s"] = traced_wall - statistics.median(
            r["wall"] for r in good_replays
        )
    out["cli.artifact_bytes"] = statistics.median(r["artifact_bytes"] for r in good)
    out["trace.overhead_s"] = traced_wall - untraced_wall
    return out


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def print_report(res: dict) -> None:
    print(
        f"trapcheck benchmark  workload={res['workload']} seed={res['seed']} "
        f"size={res['size']} trace={res['trace']}"
    )
    print(f"  trapcheck: {res['trapcheck_file']}")
    print(f"  machine: {json.dumps(res['machine'], sort_keys=True)}")
    for name, (q1, med, q3) in res["quartiles"].items():
        unit = E2E_UNITS[name]
        n = res["samples"][name]
        print(f"  {name:<16} {med:>14.6g} {unit:<4} (q1 {q1:.6g}, q3 {q3:.6g}, n={n})")
    frac = res["failed"] / res["attempted"]
    print(f"  {'failed_frac':<16} {frac:>14.6g}      ({res['failed']}/{res['attempted']})")
    if res["trace"]:
        for name, m in res["metrics"].items():
            print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}")
    pinned = res["pinned_digest"]
    verdict = "no pin for this seed" if pinned is None else (
        "matches pin" if res["digests"] == [pinned] else "DOES NOT match pin"
    )
    print(f"  digests: {', '.join(res['digests'])} ({verdict})")
    for p in res["problems"]:
        print(f"  FAILED: {p}")


def run_one(args) -> int:
    res = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / name).write_text(json.dumps(res, indent=2, sort_keys=True))
    print_report(res)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def smoke() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    want = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for w in WORKLOADS.values():
        for trace in (0, 1):
            res = measure(w, DEFAULT_SEED, 0, bool(trace), size="smoke")
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{w.name} trace={trace}: metrics {got} != {want[trace]}")
            if res["digests"] != [res["pinned_digest"]]:
                problems.append(f"{w.name} trace={trace}: digests {res['digests']} not pinned")
            problems += [f"{w.name} trace={trace}: {p}" for p in res["problems"]]
            print(f"smoke {w.name} trace={trace}: {res['failed']}/{res['attempted']} failed")
    for p in problems:
        print(f"FAILED: {p}")
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def pin() -> int:
    pins = {}
    for size in SIZES:
        pins[size] = {}
        for w in WORKLOADS.values():
            run = Runner(w, DEFAULT_SEED, size)
            run.expected = None
            res = run.spawn()
            if run.failed:
                raise BenchError(f"cannot pin {w.name}: {run.problems}")
            pins[size][w.name] = res["digest"]
    EXPECTED.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(json.dumps(pins, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--pin", action="store_true")
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not (SRC / "trapcheck" / "cli.py").is_file():
        print(f"error: no trapcheck sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.pin:
            return pin()
        if args.workload is None:
            p.error("--workload is required")
        return run_one(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
