#!/usr/bin/env python3
"""wittcert benchmark: one command, four closed-loop workloads.

    python3 bench/run.py --workload certify --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15

Each workload runs in its own single-threaded process with one client
and drives the library in-process on inputs generated from `--seed`.
Every op's output is checked by an independent route outside the timed
region (see checks.py), and the outputs of the first passes are hashed
into a digest that two runs of one seed reproduce.

With `--trace 0` the last stdout line is a JSON object with the
end-to-end metrics; with `--trace 1` the library's public functions are
wrapped from the outside (tracing.py) and the last line carries the
per-layer metrics.  A run does a fixed number of passes, so the work
counts of a traced run repeat for one seed, and traced and untraced runs
of one seed do the same work.  The line before it is the run record.  Spans of a
traced run are written to bench/out/.

End-to-end metrics, per workload.  Times are at the reference host speed
(see speed.py): each wall time is scaled by how fast the host ran a fixed
piece of reference work at the time; the record keeps the raw figures.
  setup_s      import plus warm-up (tables, models), median of 3 set-ups,
               two of them in fresh processes
  ops_per_s    ops completed and checked per second of timed time
  op_p50_ms    median op latency, over distinct ops; an op that recurs in
               every pass (same instance or operation class) counts once,
               at the median of its timings
  op_tail_ms   the same at the workload's fixed tail percentile; the record
               gives the percentile and the ops above it.  A timed-out op
               counts at its deadline.
  peak_rss_mb  peak resident memory of the workload process
  ops_ok_frac  share of attempted ops that finished and passed their check
               (failures and timeouts are listed in the record)

eliminate also runs the roadmap's named cusp instance once per run,
beside the passes and out of every metric; the record gives its status.
BENCHMARK.json lists certify, witt and dieudonne: with eliminate as well,
the runs a comparison makes would not fit its time budget at a run length
long enough to be steady on a small shared machine.  eliminate is run by
`--workload eliminate` and by `--workload all`.

`--workload all` runs every workload untraced and then traced, each in a
child process, and prints one row per workload plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402

# Set-up is timed from here; its scale is the mean of the host speed
# before and after it.
_SCALE_AT_START = speed.speed_scale()
_START = time.perf_counter()

SETUP_SAMPLES = 3
END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb", "ops_ok_frac")
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
         "peak_rss_mb": "MB", "ops_ok_frac": "frac"}


def _commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _per_layer_names() -> tuple[list, dict]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in doc["per_layer"]], {m["name"]: m["unit"] for m in doc["per_layer"]}


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _extra_setups(args) -> list:
    """(set-up time, speed scale) of fresh processes (import included), run one at a time."""
    times = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, cwd=ROOT, timeout=120,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError("set-up process failed")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((sample["setup_s"], sample["scale"]))
    return times


def run_workload(args) -> int:
    try:
        import harness
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the library: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.active = True
    workload.setup()
    setup_s = time.perf_counter() - _START
    if tracer is not None:
        tracer.active = False
    setup_scale = (_SCALE_AT_START + speed.speed_scale()) / 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "scale": setup_scale}))
        return 0

    named = None
    if hasattr(workload, "named_op"):
        # Run once beside the passes, untraced and out of every metric.
        named = harness.run_passes(iter([[workload.named_op()]]), 1, 0)
    count = max(workload.digest_passes, round(args.seconds / workload.pass_seconds))
    stats = harness.run_passes(workload.passes(args.seed), count, workload.digest_passes, tracer)
    e2e = harness.end_to_end(stats, workload.tail_percentile)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "traced": bool(args.trace),
        "ops": stats.attempted,
        "distinct_ops": e2e["distinct_ops"],
        "passes": stats.passes,
        "timed_s": stats.timed_s,
        "speed_scale": e2e["speed_scale"],
        "raw": {name: e2e["raw_" + name] for name in ("ops_per_s", "op_p50_ms", "op_tail_ms")},
        "tail_percentile": e2e["tail_percentile"],
        "tail_samples_above": e2e["tail_samples_above"],
        "timeouts": stats.timeouts,
        "check_failures": stats.check_failures,
        "digest": stats.digest,
        "digest_ops": stats.digest_ops,
    }
    if named is not None:
        record["named_instance"] = (
            "timeout" if named.timeouts else "failed its check" if named.check_failures
            else f"finished in {named.timed_s:.3f} s"
        )
        record["check_failures"] = stats.check_failures + named.check_failures
    if tracer is None:
        setups = [(setup_s, setup_scale)] + _extra_setups(args)
        values = {
            "setup_s": statistics.median(t * k for t, k in setups),
            "ops_per_s": e2e["ops_per_s"],
            "op_p50_ms": e2e["op_p50_ms"],
            "op_tail_ms": e2e["op_tail_ms"],
            "peak_rss_mb": _peak_rss_mb(),
            "ops_ok_frac": e2e["ops_ok_frac"],
        }
        record["setup_samples_s"] = [t for t, _ in setups]
        record["setup_scales"] = [k for _, k in setups]
        metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in END_TO_END}
    else:
        names, units = _per_layer_names()
        values = {name: tracer.metric(name) for name in names}
        values["bench.traced_ops_per_s"] = e2e["ops_per_s"]
        metrics = {name: {"value": values[name], "unit": units[name]} for name in names}
        spans = BENCH / "out" / f"spans-{workload.name}-{args.seed}.jsonl"
        tracer.write_spans(spans)
        record["spans_file"] = str(spans.relative_to(ROOT))
        record["spans_dropped"] = tracer.dropped
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not record["check_failures"],
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    rows = []
    for name in ("certify", "eliminate", "witt", "dieudonne"):
        lines = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=900,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            out = proc.stdout.strip().splitlines()
            lines[trace] = (json.loads(out[-2])["record"], json.loads(out[-1]))
        record, result = lines[0]
        traced = lines[1][1]["metrics"]["bench.traced_ops_per_s"]["value"]
        untraced = result["metrics"]["ops_per_s"]["value"]
        print(f"== {name}: {result['attempted']} ops, {result['failed']} failed "
              f"({len(record['timeouts'])} timeouts), correct={result['correct']}, digest {record['digest'][:16]}")
        for metric, entry in result["metrics"].items():
            note = ""
            if metric == "op_tail_ms":
                note = f"  (p{record['tail_percentile']}, {record['tail_samples_above']} samples above)"
            print(f"   {metric:<14} {entry['value']:>12.4f} {entry['unit']}{note}")
        print(f"   tracing overhead: traced ops_per_s {traced:.2f} vs untraced {untraced:.2f} "
              f"({untraced / traced:.2f}x)")
        if record["timeouts"]:
            counts = Counter(record["timeouts"])
            print("   timed out: " + ", ".join(f"{label} x{n}" for label, n in counts.items()))
        if "named_instance" in record:
            print(f"   roadmap cusp instance (5 s deadline): {record['named_instance']}")
        rows.append({"record": record, "result": result, "traced": lines[1][1]})
    print(json.dumps({"workloads": rows}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["certify", "eliminate", "witt", "dieudonne", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="run length: passes = seconds / the workload's nominal pass time")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
