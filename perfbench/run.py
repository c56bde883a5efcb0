"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload engine-bulk --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ledger.  Human-readable diagnostics come first; the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Exit codes:
0 success, 2 when ``src/repro`` is missing, 3 when a child of an earlier
run is still alive.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
SETUP_REPEATS = 9


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _terminate(signum, _frame):
    # turn SIGTERM into SystemExit so every ``finally`` reaps its children
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench.procs import Children, marked_processes
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    stale = marked_processes()
    if stale:
        print(f"perfbench: refusing to start, processes of an earlier run are alive: "
              f"{stale}", file=sys.stderr)
        return 3
    signal.signal(signal.SIGTERM, _terminate)
    children = Children(SRC)
    try:
        run = _traced if args.trace else _untraced
        result = run(workload, args.seed, args.seconds, children)
    finally:
        children.close()
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------- #
# end-to-end run
# ---------------------------------------------------------------------- #
def _cold_setups(workload, children):
    """Median of ``SETUP_REPEATS`` cold set-ups, after one untimed set-up that
    fills the bytecode caches; returns ``(median, times, context)`` with the
    last set-up's context left open for the run."""
    if not workload.servers:
        children.probe(workload.probe_code)
        times = [children.probe(workload.probe_code) for _ in range(SETUP_REPEATS)]
        return statistics.median(times), times, workload.open(children)
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        ctx = workload.open(children)
        if i:
            times.append(time.perf_counter() - t0)
        if i < SETUP_REPEATS:
            workload.close(ctx)
            children.stop_all()
    return statistics.median(times), times, ctx


def _untraced(workload, seed, seconds, children):
    from perfbench.measure import Floor, RunLog, nearest_rank, tail, vm_hwm_mb
    from perfbench.probes import failed_by_type
    from perfbench.workloads import PARAMS

    floor = Floor()
    units = workload.schedule(seed, seconds)
    setup_s, setup_times, ctx = _cold_setups(workload, children)
    log = RunLog(floor)
    try:
        workload.warm(ctx)
        t0 = time.perf_counter()
        workload.run(ctx, units, log)
        wall = time.perf_counter() - t0
        rss = vm_hwm_mb() + children.live_rss_mb()
        probes = workload.probes(ctx, seed)
    finally:
        workload.close(ctx)
        children.stop_all()

    ok = [o for o in log.ops if o.ok]
    records = sum(o.records for o in ok)
    reads = sum(o.reads for o in log.ops if o.reads is not None)
    writes = sum(o.writes for o in log.ops if o.writes is not None)
    latencies = [o.latency for o in ok]
    p_tail, v_tail, beyond = tail(latencies)
    p50, _ = nearest_rank(sorted(latencies), 50.0)
    per_record = max(1, records)
    metrics = {
        "setup_s": (setup_s, "s"),
        "slowdown_vs_sorted": (log.active_seconds / per_record / floor.per_record, "x"),
        "latency_p50_vs_floor": (p50 / floor.seconds, "x"),
        "latency_tail_vs_floor": (v_tail / floor.seconds, "x"),
        "succeeded_op_share": (len(ok) / len(log.ops), "share"),
        "aem_cost_per_record": ((reads + PARAMS.omega * writes) / per_record, "cost/record"),
        "aem_reads_per_record": (reads / per_record, "blocks/record"),
        "aem_writes_per_record": (writes / per_record, "blocks/record"),
        "peak_rss_mb": (rss, "MB"),
    }
    detail = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": 0,
        "machine": str(PARAMS),
        "latency_tail": {"percentile": p_tail, "samples": len(latencies),
                         "beyond": beyond, "resolved": beyond >= 10},
        "raw": {"wall_s": wall, "active_s": log.active_seconds, "records": records,
                "records_per_s": records / log.active_seconds, "floor_s": floor.seconds,
                "floor_pre_s": floor.pre, "floor_windows": floor.windows,
                "setup_times_s": setup_times,
                "latency_p50_s": p50, "latency_tail_s": v_tail},
        "floor.drift": floor.drift,
        "exact": _exact(log, reads, writes),
        "probes": probes,
        "probe.failed_by_type": failed_by_type(probes),
    }
    _report(detail, metrics)
    return {
        "correct": log.wrong_outputs == 0,
        "attempted": len(log.ops),
        "failed": len(log.ops) - len(ok),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _exact(log, reads, writes) -> dict:
    """Counts that must repeat exactly for a given seed."""
    ok = sum(1 for o in log.ops if o.ok)
    return {
        "ops": len(log.ops),
        "reads": reads,
        "writes": writes,
        "records": sum(o.records for o in log.ops if o.ok),
        "succeeded_op_share": ok / len(log.ops),
        "failed_by_type": log.failed_by_type(),
        "per_op_sha256": hashlib.sha256(repr([o.exact for o in log.ops]).encode()).hexdigest(),
    }


# ---------------------------------------------------------------------- #
# traced run
# ---------------------------------------------------------------------- #
def _traced(workload, seed, seconds, children):
    from perfbench import ledger
    from perfbench.measure import Floor, NullTracer, RunLog, Tracer
    from perfbench.probes import failed_by_type
    from perfbench.workloads import PARAMS
    from repro import SortEngine

    tracer = Tracer()
    floor = Floor()
    units = workload.schedule(seed, seconds)
    part = units[: workload.TRACE_UNITS]
    runs = {False: [], True: []}
    ctx = workload.open(children)
    try:
        workload.warm(ctx)
        # untraced and traced passes over the same units, ABBA to cancel drift
        for traced in (False, True, True, False):
            log = RunLog(floor)
            workload.run(ctx, part, log, tracer if traced else NullTracer())
            runs[traced].append(log)
        probes = workload.probes(ctx, seed)
    finally:
        workload.close(ctx)
        children.stop_all()
    untraced_s = sum(log.active_seconds for log in runs[False])
    traced_s = sum(log.active_seconds for log in runs[True])

    led = ledger.Ledger(tracer)
    signatures = {_signature(log) for logs in runs.values() for log in logs}
    led.expect("traced vs untraced outputs and counters", len(signatures), 1)
    engine = SortEngine(PARAMS)
    kernel_input, jobs = workload.ledger_inputs(units)
    ledger.kernels_and_engine(led, engine, kernel_input)
    ledger.merge(led, kernel_input)
    stream_records = jobs[0] if workload.name == "stream-updates" else kernel_input
    ledger.buffer_tree(led, engine, stream_records, random.Random(f"ledger:{seed}"))
    ledger.planner(led, workload.plan_sizes(units) or [len(j) for j in jobs])
    ledger.service_and_wire(led, engine, children, jobs)
    ledger.cluster(led, children, jobs, seed)
    led.put("floor.sorted_ms", floor.seconds * 1e3, "ms")
    led.put("floor.drift", floor.drift, "ratio")
    led.put("trace.overhead_share", (traced_s - untraced_s) / untraced_s, "share")

    ops = [o for logs in runs.values() for log in logs for o in log.ops]
    detail = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": 1,
        "machine": str(PARAMS),
        "mismatches": led.mismatches,
        "ledger_failures": led.failures,
        "self_seconds": tracer.self_seconds(),
        "probes": probes,
        "probe.failed_by_type": failed_by_type(probes),
    }
    _write_spans(workload.name, seed, tracer)
    _report(detail, led.metrics)
    wrong = sum(1 for o in ops if o.error == "WrongOutput")
    return {
        "correct": not led.mismatches and wrong == 0,
        "attempted": len(ops),
        "failed": sum(1 for o in ops if not o.ok),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in led.metrics.items()},
    }


def _signature(log) -> tuple:
    return tuple((o.ok, o.error, o.reads, o.writes, o.exact) for o in log.ops)


def _write_spans(name, seed, tracer) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{name}-{seed}.json")
    with open(path, "w") as fh:
        json.dump([vars(s) for s in tracer.spans], fh)


def _report(detail: dict, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(json.dumps({"detail": detail}, default=str))


if __name__ == "__main__":
    sys.exit(main())
