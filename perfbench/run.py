"""End-to-end federation benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload read_mix --seed 1 --seconds 30 --trace 0

One process runs one workload (``read_mix``, ``write_mix`` or
``higher_order_scan``; see ``perfbench/README.md``). A single client
thread drives a closed loop: each request is sent when the previous
reply has arrived, as the synchronous ``Federation`` API requires. The
run

1. builds the workload ``SETUP_REPEATS`` times and reports the median
   as ``setup_s`` (members, ``install()`` and a warm-up pass);
2. sends requests until they have kept the program busy for
   ``--seconds`` seconds at the probe's reference speed (below), timing
   only the program's calls, and checks every answer against an
   independent model outside the timed region;
3. checks the final state (every member and the unified view) against
   the model.

Times are scaled by the machine-speed probe of ``speed.py``; the raw
figures are kept in the report line. With ``--trace 0`` the run
reports the end-to-end metrics. With ``--trace 1`` it alternates
untraced and traced blocks of requests and reports the per-layer
metrics of the traced blocks (``layers.py``) and the tracing overhead.
The last line of standard output is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``; the line before it records the
environment, sizes, sample counts and every operation class's
latencies. A traced run writes its spans to
``perfbench/out/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

from speed import NEIGHBOURS, SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: The seed of ``StockWorkload``'s own default data.
DEFAULT_SEED = 1985
#: Operation classes; each workload op is one of them.
KINDS = ("query", "update")
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: A run stops after this many times ``--seconds`` of wall time even if
#: the program has not been busy for ``--seconds`` yet.
WALL_LIMIT = 4
#: Length of one untraced or traced block in a ``--trace 1`` run.
TRACE_BLOCK_S = 1.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description="End-to-end federation "
                                                 "benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def percentile(values, fraction):
    """Interpolated percentile of ``values`` (at least two)."""
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return cuts[round(fraction * 1000) - 1]


class Loop:
    """What one stretch of the closed loop did.

    Start instants and durations of completed requests are kept per
    operation class in flat arrays, so the benchmark's own memory
    barely grows with the number of requests.
    """

    def __init__(self):
        self.starts = {kind: array("d") for kind in KINDS}
        self.seconds = {kind: array("d") for kind in KINDS}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.truncated = False

    def record(self, kind, start, seconds):
        self.starts[kind].append(start)
        self.seconds[kind].append(seconds)

    @property
    def completed(self):
        return sum(len(values) for values in self.seconds.values())

    def latencies_ms(self, scale=None):
        """``{kind: [ms, ...]}``, scaled by ``scale(start)`` if given."""
        return {
            kind: [seconds * 1000.0 * (scale(start) if scale else 1.0)
                   for start, seconds in zip(self.starts[kind],
                                             self.seconds[kind])]
            for kind in KINDS
        }

    def ops_per_s(self, scale=None):
        busy_ms = sum(sum(values)
                      for values in self.latencies_ms(scale).values())
        return self.completed * 1000.0 / busy_ms


def drive(workload, loop, seconds, probe, recorder=None, observer=None):
    """Send requests until they have kept the program busy for
    ``seconds`` at the probe's reference speed, so a run does the same
    amount of work however fast the machine is at the moment. Each
    result is checked against the model after its timer stopped, and
    the probe runs between requests."""
    busy = 0.0
    wall_limit = time.perf_counter() + WALL_LIMIT * seconds
    while busy < seconds and time.perf_counter() < wall_limit:
        op = workload.next_op()
        loop.attempted += 1
        started = time.perf_counter()
        try:
            if recorder is None:
                result = op.call()
            else:
                result = recorder.run_op(loop.attempted, op.call)
        except Exception as exc:  # a failed request is counted, not fatal
            loop.failed += 1
            loop.errors.append(f"{op.shape}: {type(exc).__name__}: {exc}")
            result = None
        elapsed = time.perf_counter() - started
        busy += elapsed * probe.current_scale()
        if result is None:
            continue
        loop.record(op.kind, started, elapsed)
        if observer is not None:
            observer.observe(op, result)
        if op.check(result):
            if op.applied is not None:
                op.applied()
        else:
            loop.failed += 1
            loop.errors.append(f"{op.shape}: wrong answer")
        probe.tick(elapsed)
    loop.truncated = busy < seconds


def build(workload_cls, seed, probe):
    """Build the workload ``SETUP_REPEATS`` times, keeping the last one;
    returns it with the raw and the scaled set-up times."""
    timings = []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        workload = workload_cls(seed)
        gc.collect()
        probe.sample(NEIGHBOURS)
        started = time.perf_counter()
        workload.build()
        timings.append((started, time.perf_counter() - started))
        probe.sample(NEIGHBOURS)
    return (workload, [elapsed for _, elapsed in timings],
            [elapsed * probe.scale(started) for started, elapsed in timings])


def latency_summary(latencies):
    """p50/p90 of each operation class with samples, and p99 where at
    least ten samples lie beyond it."""
    summary = {}
    for kind, values in latencies.items():
        if len(values) < 2:
            continue
        summary[f"{kind}_p50_ms"] = percentile(values, 0.50)
        summary[f"{kind}_p90_ms"] = percentile(values, 0.90)
        if len(values) >= 1000:
            summary[f"{kind}_p99_ms"] = percentile(values, 0.99)
    return summary


def end_to_end(workload, args, probe, setup):
    raw_setup, scaled_setup = setup
    loop = Loop()
    gc.collect()
    drive(workload, loop, args.seconds, probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = workload.final_check()
    scaled = latency_summary(loop.latencies_ms(probe.scale))
    metrics = {
        "setup_s": (statistics.median(scaled_setup), "s"),
        "ops_per_s": (loop.ops_per_s(probe.scale), "1/s"),
        "query_p50_ms": (scaled.get("query_p50_ms"), "ms"),
        "query_p90_ms": (scaled.get("query_p90_ms"), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    report = {
        "latencies_ms": scaled,
        "samples": {kind: len(values)
                    for kind, values in loop.latencies_ms().items()},
        "raw": {
            "latencies_ms": latency_summary(loop.latencies_ms()),
            "ops_per_s": loop.ops_per_s(),
            "setup_s": statistics.median(raw_setup),
        },
        "setup_samples_s": scaled_setup,
        "truncated": loop.truncated,
        "failed_ops_ratio": loop.failed / loop.attempted,
        "final_state_problems": problems,
        "errors": loop.errors[:20],
    }
    return loop.attempted, loop.failed, metrics, report, not problems


class TracedObserver:
    """Per-request facts read from the results of traced requests,
    outside their spans."""

    def __init__(self, workload):
        from layers import count_spans

        self.count_spans = count_spans
        self.workload = workload
        self.queries = 0
        self.pruned = 0
        self.updates = 0
        self.program_spans = 0
        self.changed_rows = 0
        self.journal_bytes = 0
        federation = getattr(workload, "federation", None)
        self._buffer = (federation.journal.buffer
                        if federation is not None else None)
        self._seen = 0
        self.skip_untraced()

    def observe(self, op, result):
        self.program_spans += self.count_spans(getattr(result, "trace",
                                                       None))
        if op.kind == "query":
            self.queries += 1
            decision = self.workload.engine().last_prune
            if decision is not None and decision.applied:
                self.pruned += 1
        else:
            self.updates += 1
            self.changed_rows += (result.inserted + result.deleted
                                  + result.modified)
        if self._buffer is not None:
            self.journal_bytes += sum(len(line)
                                      for line in self._buffer[self._seen:])
            self._seen = len(self._buffer)

    def skip_untraced(self):
        """Forget journal growth from untraced requests."""
        if self._buffer is not None:
            self._seen = len(self._buffer)


def per_layer(workload, args, probe):
    from layers import SpanRecorder

    connector_types = {type(connector) for connector in
                       getattr(workload, "connectors", {}).values()}
    recorder = SpanRecorder(connector_types)
    observer = TracedObserver(workload)
    plain, traced = Loop(), Loop()
    federation = getattr(workload, "federation", None)
    registry = federation.obs.metrics if federation is not None else None
    fallbacks_before = _fallbacks(registry)
    gc.collect()
    done = 0.0
    tracing = False
    while done < args.seconds and not (plain.truncated or traced.truncated):
        block = min(TRACE_BLOCK_S, args.seconds - done)
        if tracing:
            recorder.install()
            try:
                drive(workload, traced, block, probe, recorder, observer)
            finally:
                recorder.uninstall()
        else:
            drive(workload, plain, block, probe)
            observer.skip_untraced()
        done += block
        tracing = not tracing
    problems = workload.final_check()

    client_self, worker_self, worker_busy, calls, wall = recorder.breakdown(
        probe.scale)
    counts = recorder.counts
    ops = calls["client"]
    updates = observer.updates
    maps = calls["executor"]
    materializes = calls["fixpoint.materialize"]
    repaired = counts["repaired_strata"]
    fallbacks = _fallbacks(registry) - fallbacks_before
    health = [connector.health for connector in
              (federation.connectors.values() if federation is not None
               else ())]

    def ms(layer):
        return (client_self[layer] + worker_self[layer]) * 1000.0

    def per(value, base):
        return value / base if base else 0.0

    metrics = {
        "parser.ms_per_op": (per(ms("parser"), ops), "ms/op"),
        "analysis.ms_per_op": (per(ms("analysis"), ops), "ms/op"),
        "analysis.pruned_ratio": (per(observer.pruned, observer.queries),
                                  "ratio"),
        "evaluator.ms_per_op": (per(ms("evaluator"), ops), "ms/op"),
        "evaluator.answers_per_op": (per(counts["answers"], ops),
                                     "answers/op"),
        "evaluator.us_per_answer": (
            per(ms("evaluator") * 1000.0, counts["answers"]), "us/answer"),
        "fixpoint.materialize_calls_per_op": (per(materializes, ops),
                                              "calls/op"),
        "fixpoint.materialize_ms_per_op": (
            per(ms("fixpoint.materialize"), ops), "ms/op"),
        "fixpoint.derivations_per_materialize": (
            per(counts["derivations"], materializes), "facts/call"),
        "fixpoint.maintain_calls_per_update": (
            per(calls["fixpoint.maintain"], updates), "calls/update"),
        "fixpoint.repair_ratio": (per(repaired, repaired + fallbacks),
                                  "ratio"),
        "updates.ms_per_update": (per(ms("updates"), updates), "ms/update"),
        "objects.snapshot_ms_per_update": (
            per(ms("objects.snapshot"), updates), "ms/update"),
        "flush.stage_ms_per_update": (per(ms("flush.stage"), updates),
                                      "ms/update"),
        "journal.ms_per_update": (per(ms("journal"), updates), "ms/update"),
        "connector.apply_ms_per_update": (
            per(ms("connector.apply"), updates), "ms/update"),
        "flush.rows_staged_per_changed_row": (
            per(counts["rows_staged"], observer.changed_rows), "rows/row"),
        "journal.bytes_per_update": (per(observer.journal_bytes, updates),
                                     "B/update"),
        "connector.applies_per_update": (
            per(calls["connector.apply"], updates), "calls/update"),
        "executor.maps_per_op": (per(maps, ops), "calls/op"),
        "executor.tasks_per_map": (per(counts["tasks"], maps), "tasks/map"),
        "executor.ms_per_map": (per(client_self["executor"] * 1000.0, maps),
                                "ms/map"),
        "executor.worker_ms_per_map": (per(worker_busy * 1000.0, maps),
                                       "ms/map"),
        "connector.retries": (sum(h.retries for h in health), "count"),
        "connector.failures": (sum(h.failures for h in health), "count"),
        "federation.self_ms_per_op": (per(ms("federation"), ops), "ms/op"),
        "obs.spans_per_op": (per(observer.program_spans, ops), "spans/op"),
        "trace.unattributed_ms_per_op": (per(ms("client"), ops), "ms/op"),
        "trace.overhead_ratio": (
            per(traced.ops_per_s(probe.scale), plain.ops_per_s(probe.scale)),
            "ratio"),
    }
    attributed = sum(client_self.values())
    report = {
        "traced_ops": ops,
        "untraced_ops": plain.completed,
        "traced_wall_ms": wall * 1000.0,
        "client_self_ms": {layer: value * 1000.0
                           for layer, value in sorted(client_self.items())},
        "worker_self_ms": {layer: value * 1000.0
                           for layer, value in sorted(worker_self.items())},
        "client_self_sum_ms": attributed * 1000.0,
        "bases": {"ops": ops, "queries": observer.queries,
                  "updates": updates, "maps": maps,
                  "materialize_calls": materializes,
                  "answers": counts["answers"],
                  "repaired_strata": repaired, "fallback_strata": fallbacks,
                  "changed_rows": observer.changed_rows},
        "final_state_problems": problems,
        "errors": (plain.errors + traced.errors)[:20],
    }
    OUT.mkdir(exist_ok=True)
    recorder.dump(OUT / f"spans-{args.workload}.jsonl")
    # The layers' self times and the client remainder must account for
    # the traced wall time.
    balanced = ops > 0 and abs(attributed - wall) <= 1e-9 + 1e-6 * wall
    return (plain.attempted + traced.attempted, plain.failed + traced.failed,
            metrics, report, not problems and balanced)


def _fallbacks(registry):
    if registry is None:
        return 0
    return registry.counter_value("fixpoint.maintain.fallbacks")


def main(argv=None):
    args = parse_args(argv)
    if not (SOURCE / "repro").is_dir():
        print(f"perfbench: no program sources under {SOURCE}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    from workloads import WORKLOADS, cpu_count

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(sorted(WORKLOADS))}", file=sys.stderr)
        return 2
    probe = SpeedProbe()
    workload, *setup = build(WORKLOADS[args.workload], args.seed, probe)
    try:
        if args.trace:
            attempted, failed, metrics, report, correct = per_layer(
                workload, args, probe)
        else:
            attempted, failed, metrics, report, correct = end_to_end(
                workload, args, probe, setup)
        environment = workload.environment()
    finally:
        workload.close()
    missing = [name for name, (value, _unit) in metrics.items()
               if value is None]
    if missing:
        print(f"perfbench: no samples for {', '.join(missing)}",
              file=sys.stderr)
        return 1
    environment.update({
        "nproc": cpu_count(),
        "python": platform.python_version(),
        "client_threads": 1,
        "loop": "closed",
        "probe_median_ms": probe.median_s() * 1000.0,
        "probe_samples": len(probe.seconds),
    })
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment, "sizes": workload.sizes, **report,
    }))
    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
