"""regsum benchmark runner.

    python3 bench/run.py --workload exact|crosscheck|cli --seed N --seconds S --trace 0|1

One caller, closed loop: each op starts after the previous one has finished
and been checked.  Answers are checked against oracles outside the timed
call.  With ``--trace 0`` the run measures for S seconds and reports the
end-to-end metrics; ``setup_s`` is the median over fresh interpreters of the
time to the first op.  With ``--trace 1`` it measures untraced for S/4
seconds, then replays each of those ops twice, untraced and with spans
around every layer boundary, and reports the per-layer metrics plus the
tracing overhead.

The last line of stdout is the result object; the line before it holds the
run's details (input properties, failures by reason, tail percentile, layer
self-time shares).  Both also go to ``.bench_out/``, with the spans of a
traced run.
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
from dataclasses import dataclass
from fractions import Fraction

import paths
import workloads
from tracer import COUNTERS, SPAN_NAMES, Tracer

SETUP_PROBES = 7
TAIL_LADDER = (50, 75, 90, 95, 99, 99.5, 99.9)
TAIL_BEYOND = 10

clock = time.perf_counter


@dataclass
class Record:
    op: object
    latency: float
    answer: object
    failures: list


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (inclusive definition)."""
    k = (len(sorted_values) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (k - lo)


def samples_beyond(n: int, p: float) -> int:
    """Whole samples of n above percentile p, in exact arithmetic."""
    return int(n * (100 - Fraction(str(p))) / 100)


def tail_percentile(n: int, ladder=TAIL_LADDER) -> float | None:
    """Highest ladder percentile with at least ten of n samples beyond it."""
    fitting = [p for p in ladder if samples_beyond(n, p) >= TAIL_BEYOND]
    return max(fitting) if fitting else None


def measure(wl: workloads.Workload, ops, seconds: float, between=None) -> list[Record]:
    """Run ops one at a time until ``seconds`` have passed and the current
    block is complete; ``between(elapsed)`` runs after each op, untimed."""
    records = []
    keep_answers = not wl.in_process  # cli metrics read the outputs again
    begin = clock()
    for op in ops:
        start = clock()
        try:
            answer = wl.run(op)
        except Exception as exc:  # a raising op is a counted failure, not the end of the run
            answer = exc
        latency = clock() - start
        if isinstance(answer, Exception):
            failures = [(getattr(op, "kind", wl.name), workloads.RAISED)]
        else:
            failures = wl.check(op, answer)
        records.append(Record(op, latency, answer if keep_answers else None, failures))
        elapsed = clock() - begin
        if between is not None:
            between(elapsed)
        if elapsed >= seconds and len(records) % wl.block_size == 0:
            break
    return records


def probe_setup(name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its first op being ready."""
    cmd = [sys.executable, str(paths.BENCH / "run.py"), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    start = clock()
    with subprocess.Popen(cmd, cwd=paths.ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = clock() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return elapsed


def answered_share(wl, records: list[Record]) -> float:
    """Share of the answers asked for that came back converged and right."""
    missed = sum(len(r.failures) for r in records)
    return 1 - missed / (len(records) * wl.legs_per_op)


def end_to_end(wl, records: list[Record], setup_s: float) -> dict:
    latencies = sorted(r.latency for r in records)
    n = len(records)
    if wl.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        peak_mb = peak_kb / 1024
    else:
        peak_mb = max(r.answer.peak_rss_mb for r in records
                      if isinstance(r.answer, workloads.Completed))
    return {
        "ops_per_s": (n / sum(latencies), "1/s"),
        "latency_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "latency_tail_ms": (percentile(latencies, wl.tail_percentile) * 1e3, "ms"),
        "answered_share": (answered_share(wl, records), "share"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def _timed(fn, *args) -> float:
    start = clock()
    try:
        fn(*args)
    except Exception:  # the checked, untraced run has already counted it
        pass
    return clock() - start


def traced_replay(wl, records: list[Record]):
    """Replay each op twice, untraced and then traced, back to back, so both
    see the same machine speed.  Returns the tracer, the untraced and the
    traced latencies and, for cli, each traced process's start-up time
    (its wall time minus its ``cli.main`` span)."""
    tracer = Tracer()
    plain, traced, startups = [], [], []
    if wl.in_process:
        root = tracer.wrap("bench.op", wl.run)
        for i, record in enumerate(records):
            plain.append(_timed(wl.run, record.op))
            tracer.op_id = i
            tracer.install()
            try:
                traced.append(_timed(root, record.op))
            finally:
                tracer.uninstall()
        return tracer, plain, traced, startups
    child_spans = paths.OUT / f"cli-child-spans-{os.getpid()}.jsonl"
    child = [sys.executable, str(paths.BENCH / "cli_child.py"), str(child_spans)]
    for i, record in enumerate(records):
        plain.append(_timed(wl.run, record.op))
        wall = _timed(workloads.run_child, child + list(record.op.argv), wl.err_path)
        traced.append(wall)
        startups.append(wall - tracer.absorb(child_spans, i))
    child_spans.unlink(missing_ok=True)
    return tracer, plain, traced, startups


def per_layer(wl, records, tracer: Tracer, totals: dict, plain: list[float],
              traced: list[float], startups: list[float]) -> dict:
    n = len(records)
    out = {}
    for name in SPAN_NAMES:
        calls, self_s = totals.get(name, (0, 0.0))
        out[f"{name}.calls"] = (calls / n, "count/op")
        out[f"{name}.self_s"] = (self_s / n, "s/op")
    c = {name: tracer.counters.get(name, 0) for name in COUNTERS}
    for name in ("summation.terms.count", "summation.cesaro.terms_used",
                 "summation.cesaro.orders_tried", "summation.abel.terms_used",
                 "regularize.legs.exact", "regularize.legs.numeric", "regularize.not_regular"):
        out[name] = (c[name] / n, "count/op")
    tried = c["summation.cesaro.orders_tried"]
    out["summation.cesaro.escalation_yield"] = (
        c["summation.cesaro.converged"] / tried if tried else 0.0, "share")
    abel_calls = totals.get("summation.abel", (0, 0.0))[0]
    out["summation.abel.converged_share"] = (
        c["summation.abel.converged"] / abel_calls if abel_calls else 0.0, "share")
    out["cli.startup_s"] = (statistics.median(startups) if startups else 0.0, "s")
    out["cli.exact_fallback_share"] = (
        0.0 if wl.in_process else
        wl.fallback_share([r.op for r in records], [r.answer for r in records]), "share")
    out["bench.trace_overhead_ratio"] = (sum(traced) / sum(plain), "ratio")
    return out


def self_shares(totals: dict, traced: list[float]) -> dict:
    wall = sum(traced)
    return {name: round(self_s / wall, 4) for name, (_, self_s) in sorted(totals.items())}


def failure_counts(records: list[Record]) -> dict:
    pairs = [failure for r in records for failure in r.failures]
    return {
        "by_reason": dict(Counter(reason for _, reason in pairs)),
        "by_leg": dict(sorted(Counter(f"{leg}:{reason}" for leg, reason in pairs).items())),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        wl = workloads.make(args.workload, args.seed)
        next(wl.ops())
        print("ready", flush=True)
        return 0

    paths.OUT.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, args.seed)
    setup_samples: list[float] = []

    def probe_between(elapsed: float) -> None:
        # Spread the set-up probes over the run so that they and the ops
        # see the same stretch of machine speed.
        if len(setup_samples) < SETUP_PROBES and \
                elapsed >= len(setup_samples) * args.seconds / SETUP_PROBES:
            setup_samples.append(probe_setup(args.workload, args.seed))

    if args.trace:
        records = measure(wl, wl.ops(), args.seconds / 4)
    else:
        probe_setup(args.workload, args.seed)  # warm-up: writes bytecode caches
        records = measure(wl, wl.ops(), args.seconds, probe_between)
    n = len(records)
    failed = sum(1 for r in records if workloads.op_failed(r.failures))

    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "ops": n, "seconds_measured": round(sum(r.latency for r in records), 3),
        "tail_percentile": wl.tail_percentile,
        "tail_samples_beyond": samples_beyond(n, wl.tail_percentile),
        "tail_rule_percentile": tail_percentile(n),
        "failures": failure_counts(records),
        "properties": wl.properties([r.op for r in records]),
    }
    if not args.trace and details["tail_samples_beyond"] < TAIL_BEYOND:
        print(f"warning: only {details['tail_samples_beyond']} samples beyond "
              f"p{wl.tail_percentile}", file=sys.stderr)
    if args.trace:
        spans_path = paths.OUT / f"spans-{args.workload}.jsonl"
        tracer, plain, traced, startups = traced_replay(wl, records)
        tracer.write(spans_path)
        totals = tracer.layer_totals()
        metrics = per_layer(wl, records, tracer, totals, plain, traced, startups)
        details["self_share"] = self_shares(totals, traced)
        details["spans"] = str(spans_path.relative_to(paths.ROOT))
    else:
        metrics = end_to_end(wl, records, statistics.median(setup_samples))

    wrong = details["failures"]["by_reason"].get(workloads.WRONG, 0)
    result = {
        "correct": wrong == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    out_path = paths.OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({"details": details, "result": result}, indent=1))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
