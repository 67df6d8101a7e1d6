"""Benchmark for nodalmoduli: three seeded workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload region-box --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload glue-cli --seed 1 --seconds 5 --trace 0 --negative-control
    python3 perfbench/run.py --compare perfbench/out/A.json perfbench/out/B.json

Each run spawns fresh child processes (child.py) that import the package
from ``src``.  An untraced run (``--trace 0``) first spawns SETUP_SPAWNS
children that only set up, then one that also measures; it reports the
end-to-end metrics.  A traced run (``--trace 1``) measures half the time with
every layer wrapped in spans, replays exactly the same requests untraced in
a second fresh child for the overhead, and reports the per-layer metrics.
Results, with the environment and the measured input properties, are
written to perfbench/out/; the last stdout line is the result as JSON.

All measurements use per-process facilities only: ``time.perf_counter`` and
the child's own ``getrusage(RUSAGE_SELF)``.  Nothing traces the whole
system, drops caches or changes cgroups.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

import inputs
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")
# Setup-only children per untraced run, half spawned before and half after
# the measuring child so the samples span the run; the measuring child adds
# one more set-up sample, and setup_s is the median of all of them.
SETUP_SPAWNS = 14
CHILD_GRACE_S = 120
MEASUREMENT = (
    "per-process only: time.perf_counter in parent and child, child "
    "getrusage(RUSAGE_SELF); no system-wide tracing, cache dropping or cgroup changes"
)

END_TO_END = {
    "units_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# The end-to-end metrics declared in BENCHMARK.json and printed on the last
# line.  units_per_s and request_p50_ms are measured, printed and stored but
# not declared: on a shared CPU that switches between two speed states for
# tens of seconds they spread across seeds by more than the largest bound a
# declared metric may have (see README.md).
DECLARED = ("request_tail_ms", "peak_rss_mb", "setup_s")

PER_LAYER = {
    **{f"{layer}.{stat}": unit for layer in tracing.LAYERS
       for stat, unit in (("calls", "count"), ("self_s", "s"))},
    "feasibility.feasible_interval.us_per_call": "us",
    "feasibility.feasible_ratio": "ratio",
    "stability.shapes_per_call": "count",
    "stability.witness_ratio": "ratio",
    "moduli.enumerate_components.records": "count",
    "gluing.matrix_rank.entries": "count",
    "cli.output_bytes": "bytes",
    "import_s": "s",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.uncovered_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "measurement": MEASUREMENT,
        "client": "closed loop: one client, one request at a time, no threads",
    }


def _lines(fd: int, deadline: float):
    """Yield (line, arrival time) from a pipe until EOF or the deadline."""
    pending = b""
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            raise BenchError("benchmark child did not finish in time")
        chunk = os.read(fd, 1 << 16)
        arrived = time.perf_counter()
        if not chunk:
            if pending:
                yield pending, arrived
            return
        pending += chunk
        *complete, pending = pending.split(b"\n")
        for line in complete:
            yield line, arrived


def spawn(workload: str, seed: int, workdir: str, *args: str, timeout: float):
    """Run one child; return (seconds from spawn to ready, ready info, result).

    The result is None for a setup-only child.
    """
    cmd = [
        sys.executable, os.path.join(ROOT, "perfbench", "child.py"),
        "--workload", workload, "--workdir", workdir, "--seed", str(seed), *args,
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    lines = []
    ready_s = None
    start = time.perf_counter()
    deadline = start + timeout
    with subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE
    ) as proc:
        try:
            for line, arrived in _lines(proc.stdout.fileno(), deadline):
                if ready_s is None:
                    ready_s = arrived - start
                lines.append(line)
            code = proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
        except BaseException:
            proc.kill()
            raise
    if code != 0 or not lines or not lines[0].startswith(b"ready "):
        raise BenchError(f"benchmark child {' '.join(args)} failed with exit code {code}")
    ready = json.loads(lines[0][len(b"ready "):])
    result = json.loads(lines[-1]) if len(lines) > 1 else None
    return ready_s, ready, result


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_untraced(workload, seed, seconds, workdir, negative_control):
    setups, imports = [], []

    def set_up_only(count):
        for _ in range(count):
            ready_s, ready, _ = spawn(workload, seed, workdir, "--mode", "setup", timeout=60)
            setups.append(ready_s)
            imports.append(ready["import_s"])

    set_up_only(SETUP_SPAWNS // 2)
    extra = ["--negative-control"] if negative_control else []
    ready_s, ready, res = spawn(
        workload, seed, workdir, "--seconds", str(seconds), *extra,
        timeout=seconds + CHILD_GRACE_S,
    )
    setups.append(ready_s)
    imports.append(ready["import_s"])
    set_up_only(SETUP_SPAWNS - SETUP_SPAWNS // 2)
    latencies = res["latencies_s"]
    if not latencies:
        raise BenchError(f"no request completed: {res['errors']}")
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "units_per_s": res["units"] / sum(latencies),
        "request_p50_ms": statistics.median(latencies) * 1000,
        "request_tail_ms": tail_s * 1000,
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    detail = {
        "units": res["units"],
        "unit": res["unit"],
        "busy_s": sum(latencies),
        "wall_s": res["wall_s"],
        "tail_percentile": tail_pct,
        "latency_samples": len(latencies),
        "setup_samples_s": setups,
        "import_s": imports,
        "latencies_s": latencies,
    }
    return metrics, END_TO_END, res, detail


def run_traced(workload, seed, seconds, workdir, negative_control):
    extra = ["--negative-control"] if negative_control else []
    spans = os.path.join(OUT, f"{workload}.spans")  # one per workload: later runs overwrite
    _, ready_t, traced = spawn(
        workload, seed, workdir, "--seconds", str(seconds / 2), "--spans", spans, *extra,
        timeout=seconds + CHILD_GRACE_S,
    )
    _, ready_p, plain = spawn(
        workload, seed, workdir, "--max-requests", str(traced["attempted"]), *extra,
        timeout=seconds + CHILD_GRACE_S,
    )
    layers = traced["trace"]["layers"]
    counters = traced["trace"]["counters"]

    def get(name, key="calls"):
        return layers.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls"] = get(layer)
        metrics[f"{layer}.self_s"] = get(layer, "self_s")
    feasible_calls = get("feasibility.feasible_interval")
    checks = get("stability.check_sufficiency")
    layer_self_s = sum(get(layer, "self_s") for layer in tracing.LAYERS)
    metrics.update({
        "feasibility.feasible_interval.us_per_call":
            ratio(get("feasibility.feasible_interval", "incl_s") * 1e6, feasible_calls),
        "feasibility.feasible_ratio":
            ratio(counters.get("feasibility.feasible_interval.feasible", 0), feasible_calls),
        "stability.shapes_per_call": ratio(get("stability.max_degree_bounds"), checks),
        "stability.witness_ratio":
            ratio(counters.get("stability.check_sufficiency.witnesses", 0), checks),
        "moduli.enumerate_components.records":
            counters.get("moduli.enumerate_components.records", 0),
        "gluing.matrix_rank.entries": counters.get("gluing.matrix_rank.entries", 0),
        "cli.output_bytes": traced["properties"].get("output_bytes", 0),
        "import_s": statistics.median([ready_t["import_s"], ready_p["import_s"]]),
        "trace.traced_wall_s": traced["wall_s"],
        "trace.untraced_wall_s": plain["wall_s"],
        "trace.overhead_ratio": traced["wall_s"] / plain["wall_s"],
        "trace.uncovered_s": traced["wall_s"] - layer_self_s,
    })
    res = dict(traced)
    res["attempted"] += plain["attempted"]
    res["failed"] += plain["failed"]
    res["corrupted"] += plain["corrupted"]
    res["errors"] = traced["errors"] + plain["errors"]
    detail = {
        "unit": traced["unit"],
        "requests_per_pass": traced["attempted"],
        "layers": layers,
        "counters": counters,
        "spans": traced["trace"]["spans"],
    }
    return metrics, PER_LAYER, res, detail


def run_workload(workload, seed, seconds, trace, negative_control):
    workdir = os.path.join(OUT, f"work-{os.getpid()}-{workload}")
    os.makedirs(workdir)
    try:
        if workload == "glue-cli":
            inputs.write_glue_pool(seed, workdir)
        runner = run_traced if trace else run_untraced
        values, units, res, detail = runner(workload, seed, seconds, workdir, negative_control)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "negative_control": negative_control,
        "environment": environment(),
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failed_ratio": res["failed"] / res["attempted"],
        "corrupted": res["corrupted"],
        "errors": res["errors"],
        "properties": res["properties"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "detail": detail,
    }
    suffix = "-control" if negative_control else ""
    path = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}{suffix}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    result["file"] = os.path.relpath(path, ROOT)
    return result


def print_report(result: dict) -> None:
    env = result["environment"]
    print(
        f"{result['workload']} seed={result['seed']} seconds={result['seconds']} "
        f"trace={result['trace']} python={env['python']} commit={env['commit'][:12]} "
        f"nproc={env['nproc']}"
    )
    detail = result["detail"]
    for name, metric in result["metrics"].items():
        note = ""
        if name == "request_tail_ms":
            note = (f"  (p{detail['tail_percentile']:.2f} of "
                    f"{detail['latency_samples']} requests)")
        elif name == "setup_s":
            note = f"  (median of {len(detail['setup_samples_s'])} spawns)"
        elif name == "units_per_s":
            note = f"  ({detail['unit']}s per second of request time)"
        print(f"  {name:45s} {metric['value']:>16.6g} {metric['unit']}{note}")
    print(
        f"  failed_ratio {result['failed']}/{result['attempted']} = "
        f"{result['failed_ratio']:.6g}"
    )
    for error in result["errors"]:
        print(f"  error: {error.strip()[:300]}")
    print(f"  inputs: {json.dumps(result['properties'], sort_keys=True)}")
    print(f"  measurement: {env['measurement']}")
    print(f"  result file: {result['file']}")


def compare(path_a: str, path_b: str) -> int:
    """Per-metric ratios B/A of two result files, each with both bases."""
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    print(f"A: {path_a} ({a['workload']}, seed {a['seed']}, commit {a['environment']['commit'][:12]})")
    print(f"B: {path_b} ({b['workload']}, seed {b['seed']}, commit {b['environment']['commit'][:12]})")
    print(f"{'metric':45s} {'unit':>6s} {'A':>14s} {'B':>14s} {'B/A':>9s}")
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            print(f"{name:45s} {ma['unit']:>6s} {ma['value']:>14.6g} {'missing':>14s}")
            continue
        ratio = f"{mb['value'] / ma['value']:.4f}" if ma["value"] else "n/a"
        print(f"{name:45s} {ma['unit']:>6s} {ma['value']:>14.6g} {mb['value']:>14.6g} {ratio:>9s}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*inputs.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--negative-control", action="store_true",
        help="corrupt every other answer before checking; the oracles must fail exactly those",
    )
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "nodalmoduli", "cli.py")):
        print(f"no nodalmoduli sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    # On SIGTERM, unwind like an exception: running children are killed and
    # waited for, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [
            run_workload(w, args.seed, args.seconds, args.trace, args.negative_control)
            for w in workloads
        ]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print_report(result)
    if args.negative_control:
        detected = all(r["failed"] == r["corrupted"] > 0 for r in results)
        for r in results:
            print(f"negative control {r['workload']}: corrupted {r['corrupted']}, "
                  f"failed {r['failed']} -> {'detected' if detected else 'NOT detected'}")
    prefix = len(results) > 1
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name): metric
            for r in results for name, metric in r["metrics"].items()
            if args.trace or name in DECLARED
        },
    }
    print(json.dumps(summary))
    if args.negative_control:
        return 0 if detected else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
