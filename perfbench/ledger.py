"""The traced run: per-layer numbers, timed from outside each layer.

The ledger drives a workload's own inputs through each module's public
calls in turn — ``models`` (load / unload), ``core`` (each sort kernel, the
shard merge, the buffer tree via ``StreamSession``), ``planner``,
``engine``, ``service`` and the wire (one server), and ``cluster`` (two
servers) — recording a span around every call.  Each step checks its
outputs against ``sorted(input)`` and its block counts against the
untraced ``engine.sort`` / ``coordinator.sort`` of the same input.
"""

from __future__ import annotations

import statistics
import time

from repro import (
    AEMachine,
    MemoryGuard,
    PlanCache,
    ServiceClient,
    aem_heapsort,
    aem_mergesort,
    aem_samplesort,
    selection_sort,
)
from repro.analysis.ktuning import choose_k
from repro.cluster import ClusterCoordinator, ClusterSpec
from repro.core.shard_merge import shard_merge

from .measure import error_name
from .probes import CLUSTER_PROBE, probe_input
from .workloads import PARAMS

#: kernel → (call, largest prefix of the ledger input it sorts)
KERNELS = {
    "mergesort": (lambda m, a, k, g: aem_mergesort(m, a, k, guard=g), 100_000),
    "samplesort": (lambda m, a, k, g: aem_samplesort(m, a, k, guard=g), 100_000),
    "heapsort": (lambda m, a, k, g: aem_heapsort(m, a, k, guard=g), 100_000),
    "selection": (lambda m, a, k, g: selection_sort(m, a, guard=g), 4_000),
}
#: alternating direct/engine repetitions per kernel
REPEATS = 3
STREAM_RECORDS = 20_000
STREAM_DELETES = 1_000
STREAM_WINDOW = 1_000
STREAM_POPS = 4
PINGS = 20


class Ledger:
    """Collects ``name -> (value, unit)`` and every mismatch found."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.metrics: dict[str, tuple[float, str]] = {}
        self.mismatches: list[str] = []
        self.failures: list[str] = []

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def expect(self, what: str, got, want) -> None:
        if got != want:
            self.mismatches.append(what)

    def timed(self, name: str, call):
        """``(result, seconds)`` of ``call`` under a span named ``name``."""
        with self.tracer.span(name) as span:
            result = call()
        return result, span.seconds


def kernels_and_engine(led: Ledger, engine, data: list) -> None:
    """models load/unload, each core kernel, and the engine's own share;
    every timing is the median of ``REPEATS`` alternating direct/engine runs."""
    loads, unloads, overheads = [], [], []
    for alg, (kernel, cap) in KERNELS.items():
        x = data[:cap]
        n = len(x)
        k = choose_k(PARAMS, n=n)
        runs = []
        for _ in range(REPEATS):
            machine = AEMachine(PARAMS)
            guard = MemoryGuard()
            arr, t_load = led.timed("models.load", lambda: machine.from_list(x))
            out, t_kernel = led.timed(f"core.{alg}", lambda: kernel(machine, arr, k, guard))
            output, t_unload = led.timed("models.unload", out.peek_list)
            rep, t_engine = led.timed(f"engine.sort.{alg}", lambda: engine.sort(x, alg))
            runs.append((t_load, t_kernel, t_unload, t_engine))
        reads, writes = machine.counter.block_reads, machine.counter.block_writes
        led.expect(f"core.{alg} output", output, sorted(x))
        led.expect(f"core.{alg} vs engine output", output, rep.output)
        led.expect(f"core.{alg} vs engine counters", (reads, writes), (rep.reads, rep.writes))
        t_load, t_kernel, t_unload, t_engine = (statistics.median(c) for c in zip(*runs))
        led.put(f"core.{alg}.ns_per_record", t_kernel / n * 1e9, "ns/record")
        led.put(f"core.{alg}.ns_per_block_io", t_kernel / max(1, reads + writes) * 1e9,
                "ns/block")
        led.put(f"core.{alg}.reads_per_record", reads / n, "blocks/record")
        led.put(f"core.{alg}.writes_per_record", writes / n, "blocks/record")
        loads.append(t_load / n)
        unloads.append(t_unload / n)
        overheads.append((t_engine - t_load - t_kernel - t_unload) / t_engine)
    led.put("models.load_ns_per_record", statistics.median(loads) * 1e9, "ns/record")
    led.put("models.unload_ns_per_record", statistics.median(unloads) * 1e9, "ns/record")
    led.put("engine.overhead_share", statistics.median(overheads), "share")


def merge(led: Ledger, data: list) -> None:
    """core.shard_merge on two sorted shards split at the median key."""
    ordered = sorted(data)
    pivot = ordered[len(ordered) // 2]
    shards = [sorted(x for x in data if x < pivot), sorted(x for x in data if x >= pivot)]
    machine = AEMachine(PARAMS)
    arrays = [machine.from_list(s) for s in shards]
    out, t = led.timed("core.shard_merge", lambda: shard_merge(machine, arrays, MemoryGuard()))
    led.expect("core.shard_merge output", out.peek_list(), ordered)
    led.put("core.shard_merge.ns_per_record", t / len(data) * 1e9, "ns/record")


def buffer_tree(led: Ledger, engine, records: list, rng) -> None:
    """core.buffer_tree through one StreamSession: push, delete, pop_min, flush."""
    records = records[:STREAM_RECORDS]
    deletes = min(STREAM_DELETES, len(records) // 4)
    window = min(STREAM_WINDOW, len(records) // 8)
    session = engine.stream()
    _, t_push = led.timed("stream.push", lambda: session.push_many(records))
    picked = set(rng.sample(range(len(records)), deletes))

    def delete():
        for j in sorted(picked):
            session.delete(records[j])

    _, t_delete = led.timed("stream.delete", delete)
    live = sorted(k for j, k in enumerate(records) if j not in picked)
    t_pops = []
    for _ in range(STREAM_POPS):
        rep, t = led.timed("stream.pop_min", lambda: session.pop_min(window))
        led.expect("stream.pop_min output", rep.output, live[:window])
        live = live[window:]
        t_pops.append(t)
    rep, t_flush = led.timed("stream.close", session.close)
    led.expect("stream.close output", rep.output, live)
    led.put("core.buffer_tree.push_us", t_push / len(records) * 1e6, "us")
    led.put("core.buffer_tree.delete_us", t_delete / deletes * 1e6, "us")
    led.put("core.buffer_tree.pop_min_us", statistics.median(t_pops) * 1e6, "us")
    led.put("core.buffer_tree.flush_ns_per_record", t_flush / max(1, len(live)) * 1e9,
            "ns/record")


def planner(led: Ledger, sizes: list[int]) -> None:
    """Plan misses and hits on a fresh cache, and the workload's hit share."""
    distinct = sorted(set(sizes))
    cache = PlanCache()
    misses = [led.timed("planner.plan", lambda n=n: cache.plan(n, PARAMS))[1] for n in distinct]
    hits = [led.timed("planner.plan", lambda n=n: cache.plan(n, PARAMS))[1] for n in distinct]
    replay = PlanCache()
    for n in sizes:
        replay.plan(n, PARAMS)
    led.put("planner.plan_miss_us", statistics.median(misses) * 1e6, "us")
    led.put("planner.plan_hit_us", statistics.median(hits) * 1e6, "us")
    led.put("planner.cache_hit_share", replay.hits / max(1, replay.hits + replay.misses),
            "share")


def service_and_wire(led: Ledger, engine, children, jobs: list[list]) -> None:
    """One server, one client: ping, submit, worker-side job time, result."""
    (address,) = children.spawn_servers(1, PARAMS, workers=1)
    with ServiceClient(*address) as client:
        pings = [led.timed("wire.ping", client.ping)[1] for _ in range(PINGS)]
        busy0 = client.stats()["busy_seconds"]
        submits, overheads, walls, cpus = [], [], [], []
        wants = [_engine_counts(engine, data) for data in jobs]
        t0 = time.perf_counter()
        for data, want in zip(jobs, wants):
            try:
                ticket, t_submit = led.timed("wire.submit", lambda: client.submit(data))
                rec, t_result = led.timed("wire.result", lambda: client.result(ticket))
            except Exception as exc:  # noqa: BLE001 — counted, the ledger goes on
                led.failures.append(error_name(exc))
                continue
            led.expect("service output", rec["output"], sorted(data))
            led.expect("service vs engine counters", (rec["reads"], rec["writes"]), want)
            submits.append(t_submit)
            overheads.append(t_result - rec["wall_seconds"])
            walls.append(rec["wall_seconds"])
            cpus.append(rec["cpu_seconds"])
        elapsed = time.perf_counter() - t0
        busy = client.stats()["busy_seconds"] - busy0
    children.stop_all()
    led.put("wire.ping_ms", statistics.median(pings) * 1e3, "ms")
    led.put("wire.submit_ms", _median(submits) * 1e3, "ms")
    led.put("wire.result_overhead_ms", _median(overheads) * 1e3, "ms")
    led.put("service.job_wall_ms", _median(walls) * 1e3, "ms")
    led.put("service.job_cpu_ms", _median(cpus) * 1e3, "ms")
    led.put("service.worker_busy_share", busy / elapsed, "share")


def cluster(led: Ledger, children, jobs: list[list], seed: int) -> None:
    """Two servers: each input sorted untraced, then traced, counts compared;
    the cluster defect probe goes last, for ``inflight_after_op``."""
    hosts = children.spawn_servers(2, PARAMS, workers=1)
    sort_ms, remote_ms, serial_ms, imbalance, retries, inflight = [], [], [], [], [], []
    with ClusterCoordinator(ClusterSpec(hosts=tuple(hosts)), PARAMS) as coordinator:
        for data in jobs:
            try:
                plain = coordinator.sort(data)
                rep, t = led.timed("cluster.sort", lambda: coordinator.sort(data))
            except Exception as exc:  # noqa: BLE001 — counted, the ledger goes on
                led.failures.append(error_name(exc))
            else:
                x = rep.extras
                led.expect("cluster output", rep.output, sorted(data))
                led.expect("cluster traced vs untraced counts", _cluster_counts(rep),
                           _cluster_counts(plain))
                walls = x["shard_walls"]
                sort_ms.append(t * 1e3)
                remote_ms.append(max(walls) * 1e3)
                serial_ms.append((t - max(walls)) * 1e3)
                sizes = x["shard_sizes"]
                imbalance.append(max(sizes) / (sum(sizes) / len(sizes)))
                retries.append(x["retries"])
            inflight.append(coordinator.stats()["aggregate"]["in_flight"])
        label, kind, n = CLUSTER_PROBE
        try:
            coordinator.sort(probe_input(label, kind, n, seed))
        except Exception as exc:  # noqa: BLE001 — the probe is expected to fail today
            led.failures.append(f"probe:{error_name(exc)}")
        inflight.append(coordinator.stats()["aggregate"]["in_flight"])
    children.stop_all()
    led.put("cluster.sort_ms", _median(sort_ms), "ms")
    led.put("cluster.remote_shard_ms_max", _median(remote_ms), "ms")
    led.put("cluster.coordinator_serial_ms", _median(serial_ms), "ms")
    led.put("cluster.shard_imbalance", _median(imbalance), "ratio")
    led.put("cluster.retries", sum(retries), "count")
    led.put("cluster.inflight_after_op", max(inflight), "count")


def _engine_counts(engine, data) -> tuple | None:
    try:
        rep = engine.sort(data)
    except Exception:  # noqa: BLE001 — the server must then fail the job too
        return None
    return rep.reads, rep.writes


def _cluster_counts(rep) -> tuple:
    x = rep.extras
    return (rep.reads, rep.writes, x["remote_reads"], x["remote_writes"],
            tuple(x["shard_sizes"]), x["splitters"])


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
