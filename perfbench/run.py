"""ionoptics benchmark: one workload per run, closed loop, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli_pipeline, recovery_sweep, spam_mismatch, design_sweep (see
workloads.py and NOTES.md). The package is imported from ./src; it need
not be installed. BLAS is pinned to one thread for this process and every
CLI subprocess.

--trace 0 times the workload for S seconds and reports the end-to-end
metrics. --trace 1 runs a fixed number of operations, each once untraced
and once with every layer entry point wrapped (spans.py), and reports
the per-layer metrics plus the tracing overhead; spans are written to
.perfbench/trace-<workload>-seed<N>.json.

Human-readable lines come first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}. Exits 2 without a
result when ./src/ionoptics is missing, 1 when set-up fails.
"""

import os

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)  # before numpy loads BLAS

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import spans

SETUP_REPEATS = 3
IMPORT_PROBES = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def environment(root: Path) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or "unknown"
        except OSError:
            commit = "unknown (git not available)"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        **{k: os.environ[k] for k in PINNED_ENV},
    }


def tail(samples: list[float]):
    """(value, percentile, n): the highest order statistic with ten samples above it."""
    n = len(samples)
    if n <= 10:
        return None, None, n
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n, n


def run_ops(workload, indices, on_failure):
    """Run and check operations; returns op durations, call durations and tallies."""
    op_s, call_s = [], []
    tally = {"attempted": 0, "failed": 0, "within": 0, "judged": 0}
    for i in indices:
        tally["attempted"] += 1
        try:
            t0 = perf_counter()
            result, calls = workload.run_op(i)
            t1 = perf_counter()
            within, judged = workload.check(result)
        except Exception:  # a failed operation is counted, the run goes on
            tally["failed"] += 1
            on_failure()
            continue
        op_s.append(t1 - t0)
        call_s.extend(calls)
        tally["within"] += within
        tally["judged"] += judged
    return op_s, call_s, tally


def until(seconds: float):
    """Operation indices until ``seconds`` have passed (closed loop)."""
    deadline = perf_counter() + seconds
    i = 0
    while True:
        yield i
        i += 1
        if perf_counter() >= deadline:
            return


def import_probe(env: dict, root: Path) -> tuple[float, float]:
    """Cold ``import ionoptics`` in a fresh interpreter: (seconds, scipy share)."""
    code = ("from time import perf_counter; t = perf_counter(); import ionoptics; "
            "print(perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=root,
                          env=env, capture_output=True, text=True, check=True)
    total, scipy = spans.parse_importtime(proc.stderr)
    return float(proc.stdout.strip()), (scipy / total if total else 0.0)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "ionoptics" / "__init__.py").is_file():
        print(f"error: {src}/ionoptics not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import ionoptics  # noqa: F401  (timed: part of every in-process set-up)
    import_s = perf_counter() - t0

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src), **PINNED_ENV)
    env_record = environment(root)
    scratch = root / ".perfbench"
    work = scratch / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](root, work, args.seed, env)
    failures_shown = []

    def on_failure():
        if not failures_shown:
            traceback.print_exc()
        failures_shown.append(1)

    print("env: " + " ".join(f"{k}={v}" for k, v in env_record.items()))
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    try:
        setup = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            workload.prepare()
            setup.append(perf_counter() - t0)
        setup_s = statistics.median(setup) + (import_s if workload.in_process else 0.0)

        if args.trace:
            result, tracer = traced_run(workload, env, root, on_failure)
            out = scratch / f"trace-{args.workload}-seed{args.seed}.json"
            out.write_text(json.dumps({
                "env": env_record,
                "workload": args.workload,
                "seed": args.seed,
                "span_fields": ["name", "start", "end", "id", "parent", "trace", "value"],
                "spans": tracer.spans,
                "counts": tracer.counts,
                "absent_entry_points": sorted(tracer.absent),
            }))
            print(f"spans: {len(tracer.spans)} written to {out.relative_to(root)}")
        else:
            result = timed_run(workload, args.seconds, setup_s, on_failure)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def result_line(tally: dict, correct: bool, metrics: dict) -> dict:
    return {
        "correct": correct,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def timed_run(workload, seconds, setup_s, on_failure) -> dict:
    op_s, call_s, tally = run_ops(workload, until(seconds), on_failure)
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    recovery = tally["within"] / tally["judged"] if tally["judged"] else 0.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "op_p50_ms": (statistics.median(op_s) * 1e3 if op_s else 0.0, "ms"),
        "recovery_frac": (recovery, "frac"),
    }
    # Printed, not gated: on a shared 2-vCPU machine the inner-call median
    # (fewer samples) and the throughput (1/mean, hit by stalls) spread up
    # to twice as much between runs as the operation median.
    call_tail, pct, n_calls = tail(call_s)
    named = {
        "op_p50_ms": metrics["op_p50_ms"][0],
        "ops_per_s": len(op_s) / sum(op_s) if op_s else 0.0,
        "call_p50_ms": statistics.median(call_s) * 1e3 if call_s else 0.0,
        "call_tail_ms": call_tail * 1e3 if call_tail is not None else float("nan"),
    }
    print(f"{'setup_s':<22}{setup_s:.6g} s (median of {SETUP_REPEATS} set-ups)")
    print(f"{'peak_rss_mb':<22}{peak_rss_mb:.6g} MB")
    print(f"{'failed_frac':<22}{tally['failed'] / tally['attempted']:.6g} "
          f"({tally['failed']}/{tally['attempted']} operations)")
    for name, value, unit in workload.named(named):
        if not name.endswith("_tail_ms"):
            print(f"{name:<22}{value:.6g} {unit}")
        elif pct is None:
            print(f"{name:<22}n/a ({n_calls} samples; needs more than 10)")
        else:
            print(f"{name:<22}{value:.6g} {unit} (p{pct:.4g} of {n_calls})")
    print(f"{'recovery_frac':<22}{recovery:.6g} ({tally['within']}/{tally['judged']})")
    correct = (bool(op_s) and tally["failed"] == 0
               and (workload.min_recovery is None or recovery >= workload.min_recovery))
    return result_line(tally, correct, metrics)


def traced_run(workload, env, root, on_failure):
    """Per-layer metrics from ``trace_ops`` operations; returns (result, tracer)."""
    tracer = spans.Tracer()

    @contextlib.contextmanager
    def tracing():
        if workload.in_process:
            tracer.install()
        else:
            workload.tracer = tracer
        try:
            yield
        finally:
            tracer.uninstall()
            workload.tracer = None

    with tracing():
        tracer.trace_id = "setup"
        with tracer.span("setup"):
            workload.prepare()
    # Each op runs untraced, then traced, so drift in machine speed cancels
    # out of the overhead.
    untraced_s = traced_s = 0.0
    tally = {"attempted": 0, "failed": 0}
    for i in range(workload.trace_ops):
        plain_s, _, plain = run_ops(workload, [i], on_failure)
        with tracing():
            tracer.trace_id = i
            with tracer.span(f"op.{workload.name}"):
                wrapped_s, _, wrapped = run_ops(workload, [i], on_failure)
        untraced_s += sum(plain_s)
        traced_s += sum(wrapped_s)
        for key in tally:
            tally[key] += plain[key] + wrapped[key]

    metrics, absent = spans.layer_metrics(tracer)
    if workload.in_process:
        probes = [import_probe(env, root) for _ in range(IMPORT_PROBES)]
        metrics["import.ionoptics_s"] = (statistics.median(p[0] for p in probes), "s")
        metrics["import.scipy_share"] = (statistics.median(p[1] for p in probes), "frac")
        metrics["cli.step_self_s"] = (0.0, "s")
    else:
        metrics.update(workload.layer_metrics())
    metrics["trace.overhead_frac"] = (
        traced_s / untraced_s - 1.0 if untraced_s and traced_s else 0.0, "frac")
    metrics = dict(sorted(metrics.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name:<40}{value:.6g} {unit}")
    print(f"absent: {', '.join(absent) if absent else 'none'}")
    return result_line(tally, tally["failed"] == 0, metrics), tracer


if __name__ == "__main__":
    sys.exit(main())
