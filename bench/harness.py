"""Closed-loop op runner: deadlines, checks, digest and end-to-end metrics.

Times are reported at the reference host speed of speed.py: every half
second of a run, between two ops, the runner times the reference work, and
each op's wall time is multiplied by the scale taken before it.  The raw
wall times stay in the run record.
"""

from __future__ import annotations

import hashlib
import math
import signal
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

from checks import CheckFailed
from speed import SPEED_SAMPLE_EVERY_S, speed_scale


class DeadlineExceeded(BaseException):
    """Raised by the interval timer inside an op that overran its deadline.

    A BaseException, so that no `except Exception` in the library can
    swallow it.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@dataclass
class RunStats:
    labels: list = field(default_factory=list)
    latencies_s: list = field(default_factory=list)
    scales: list = field(default_factory=list)
    passes: int = 0
    completed: int = 0
    timeouts: list = field(default_factory=list)
    check_failures: list = field(default_factory=list)
    digest_ops: int = 0
    _digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    @property
    def attempted(self) -> int:
        return len(self.latencies_s)

    @property
    def failed(self) -> int:
        return len(self.timeouts) + len(self.check_failures)

    @property
    def timed_s(self) -> float:
        return sum(self.latencies_s)

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


def _timed_run(op, tracer):
    """(output, seconds), or (None, None) when the op overran its deadline."""
    if tracer is not None:
        tracer.active = True
    signal.setitimer(signal.ITIMER_REAL, op.deadline_s)
    start = time.perf_counter()
    try:
        output = op.run()
        elapsed = time.perf_counter() - start
    except DeadlineExceeded:
        output, elapsed = None, None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            tracer.active = False
    return output, elapsed


def run_op(op, stats: RunStats, in_digest: bool, tracer=None, scale: float = 1.0) -> None:
    """Run one op under its deadline, then check it outside the timed region."""
    if tracer is not None:
        tracer.op_id = stats.attempted
    output, elapsed = _timed_run(op, tracer)
    stats.labels.append(op.label)
    stats.scales.append(scale)
    if elapsed is None:
        # A timed-out op counts at its deadline.
        stats.latencies_s.append(op.deadline_s)
        stats.timeouts.append(op.label)
        text = f"{op.label}:timeout"
    else:
        stats.latencies_s.append(elapsed)
        try:
            text = op.check(output)
            stats.completed += 1
        except CheckFailed as exc:
            stats.check_failures.append({"op": op.label, "reason": str(exc)})
            text = f"{op.label}:failed"
    if in_digest:
        stats._digest.update(text.encode() + b"\n")
        stats.digest_ops += 1


def run_passes(passes, count: int, digest_passes: int, tracer=None) -> RunStats:
    """Run `count` whole passes; the first `digest_passes` enter the digest.

    A run does a fixed amount of work, so two runs of one seed digest the
    same outputs and every run weighs the workload's mix the same way.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    stats = RunStats()
    sampled_at = -math.inf
    try:
        for batch in passes:
            for op in batch:
                if time.perf_counter() - sampled_at >= SPEED_SAMPLE_EVERY_S:
                    scale = speed_scale()
                    sampled_at = time.perf_counter()
                run_op(op, stats, stats.passes < digest_passes, tracer, scale)
            stats.passes += 1
            if stats.passes >= count:
                break
    finally:
        signal.signal(signal.SIGALRM, previous)
    return stats


def percentile(sorted_values: list, q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def op_latencies(labels: list, latencies: list) -> list:
    """One latency per distinct op, sorted: the median of its timings.

    Workloads that repeat an op in every pass (the same instance, or the
    same operation class on fresh operands) get one steady value per op
    rather than single timings that each carry the machine's noise.
    """
    timings = defaultdict(list)
    for label, latency in zip(labels, latencies):
        timings[label].append(latency)
    return sorted(statistics.median(values) for values in timings.values())


def end_to_end(stats: RunStats, tail_percentile: float) -> dict:
    """Throughput and latencies at the reference speed, and from raw wall times."""
    out = {
        "tail_percentile": tail_percentile,
        "ops_ok_frac": stats.completed / stats.attempted,
        "speed_scale": statistics.median(stats.scales),
    }
    scaled = [t * k for t, k in zip(stats.latencies_s, stats.scales)]
    for prefix, latencies in (("", scaled), ("raw_", stats.latencies_s)):
        per_op = op_latencies(stats.labels, latencies)
        tail, above = percentile(per_op, tail_percentile)
        out[prefix + "ops_per_s"] = stats.completed / sum(latencies)
        out[prefix + "op_p50_ms"] = statistics.median(per_op) * 1e3
        out[prefix + "op_tail_ms"] = tail * 1e3
    out["distinct_ops"] = len(per_op)
    out["tail_samples_above"] = above
    return out
