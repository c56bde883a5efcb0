"""The four closed-loop workloads.

Each workload turns ``(seed, seconds)`` into a fixed schedule of *units*
(an op, a round of ops or a stream session) sized to take about
``seconds`` on a 2-core host, so the same seed always runs the same ops and
every exact count repeats.  A floor window follows every unit, when no
request is in flight.  All workloads run on one machine, M=256, B=16,
omega=16, where the planner picks the write-efficient k>1 kernels.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor

from repro import MachineParams, ServiceClient, SortEngine
from repro.cluster import ClusterCoordinator, ClusterSpec

from .inputs import make_keys, rng_for
from .measure import NullTracer, Op, RunLog, error_name
from .probes import run_probes

PARAMS = MachineParams(M=256, B=16, omega=16)
_PARAMS_SRC = f"MachineParams(M={PARAMS.M}, B={PARAMS.B}, omega={PARAMS.omega})"


def _timed(op: Op, tracer, name: str, call) -> tuple[bool, object]:
    """Run ``call`` under a span, setting ``op.latency``; a raised exception
    is recorded on ``op`` by type and the run goes on."""
    t0 = time.perf_counter()
    try:
        with tracer.span(name):
            result = call()
    except Exception as exc:  # noqa: BLE001 — counted, never skipped
        op.latency = time.perf_counter() - t0
        op.error = error_name(exc)
        return False, None
    op.latency = time.perf_counter() - t0
    return True, result


def _units(seconds: int, per_second: float) -> int:
    return max(1, round(seconds * per_second))


class Workload:
    """Interface: ``schedule`` → units; ``open``/``close`` the system under
    test; ``run`` drives units in a closed loop into a :class:`RunLog`."""

    name = ""
    #: servers to spawn (0 = the program runs inside the benchmark process)
    servers = 0
    #: cold set-up for in-process workloads, as ``python -c`` source
    probe_code = ""
    #: units the traced run repeats untraced and traced
    TRACE_UNITS = 4

    def schedule(self, seed: int, seconds: int) -> list:
        raise NotImplementedError

    def open(self, children):
        """Build the system under test; returns its context."""
        raise NotImplementedError

    def close(self, ctx) -> None:
        pass

    def warm(self, ctx) -> None:
        """Untimed first use, so lazy imports and set-up are paid already."""

    def run(self, ctx, units: list, log: RunLog, tracer=NullTracer()) -> None:
        raise NotImplementedError

    def probes(self, ctx, seed: int) -> dict[str, str]:
        """Known-defect probe outcomes, sent once after the timed loop."""
        return run_probes(seed, ctx)

    def ledger_inputs(self, units: list) -> tuple[list, list[list]]:
        """The traced ledger's inputs: one distinct-key list for the kernels,
        and the jobs it sends through the service and the cluster."""
        raise NotImplementedError

    def plan_sizes(self, units: list) -> list[int]:
        """Problem sizes the planner sees, in schedule order."""
        return []


# ---------------------------------------------------------------------- #
# in-process, one caller
# ---------------------------------------------------------------------- #
class EngineBulk(Workload):
    """In-process 100k-record sorts: models and core do the work, nothing
    crosses service or cluster, so a wire change must not move it."""

    name = "engine-bulk"
    N = 100_000
    ALGORITHMS = ("auto", "mergesort", "samplesort", "heapsort")
    #: one pass: each input under each algorithm that sorts it today; the
    #: duplicate-key combinations that fail are run by the defect probes
    PASS = (
        ("distinct", ALGORITHMS),
        ("distinct", ALGORITHMS),
        ("dup-pair", ("auto", "mergesort", "samplesort")),
        ("few-distinct", ("auto", "samplesort")),
    )
    PASS_SECONDS = 5.0
    probe_code = (
        "from repro import SortEngine, MachineParams; "
        f"SortEngine({_PARAMS_SRC}); print('ready', flush=True)"
    )

    def schedule(self, seed, seconds):
        units = []
        for p in range(_units(seconds, 1 / self.PASS_SECONDS)):
            for i, (kind, algorithms) in enumerate(self.PASS):
                data = make_keys(kind, self.N, rng_for(self.name, seed, p, i))
                ref = sorted(data)
                units += [(kind, data, ref, alg) for alg in algorithms]
        return units

    def open(self, children):
        return SortEngine(PARAMS)

    def warm(self, engine):
        data = make_keys("distinct", 2000, rng_for(self.name, "warm"))
        for alg in self.ALGORITHMS:
            engine.sort(data, alg)

    def run(self, engine, units, log, tracer=NullTracer()):
        for _kind, data, ref, alg in units:
            op = Op(records=len(data))
            done, rep = _timed(op, tracer, "engine.sort", lambda: engine.sort(data, alg))
            if done:
                _check(op, rep.output, ref, rep.reads, rep.writes, (rep.algorithm,))
            log.active_seconds += op.latency
            log.ops.append(op)
            log.floor.window()

    def ledger_inputs(self, units):
        firsts = {}
        for kind, data, _ref, _alg in units:
            firsts.setdefault(kind, data)
        return firsts["distinct"], list(firsts.values())

    def plan_sizes(self, units):
        return [len(u[1]) for u in units if u[3] == "auto"]


class StreamUpdates(Workload):
    """Stream sessions exercise the write-heavy buffer tree on the ``(key,
    seq)`` records ``StreamSession`` builds, duplicates included."""

    name = "stream-updates"
    BATCH = 2000
    STEPS = 16
    DELETES = 200
    WINDOW = 1000
    KINDS = ("distinct", "dup-pair", "few-distinct", "zipf")
    SESSIONS_PER_SECOND = 3.5
    probe_code = (
        "from repro import SortEngine, MachineParams; "
        f"SortEngine({_PARAMS_SRC}).stream(); print('ready', flush=True)"
    )

    def schedule(self, seed, seconds):
        # a unit is one session: its batches are generated when it runs
        return [(seed, s) for s in range(_units(seconds, self.SESSIONS_PER_SECOND))]

    def open(self, children):
        return SortEngine(PARAMS)

    def warm(self, engine):
        with engine.stream() as session:
            session.push_many(make_keys("distinct", 500, rng_for(self.name, "warm")))
            session.pop_min(100)

    def batches(self, seed, s):
        return [
            make_keys(self.KINDS[i % len(self.KINDS)], self.BATCH,
                      rng_for(self.name, seed, s, i))
            for i in range(self.STEPS)
        ]

    def run(self, engine, units, log, tracer=NullTracer()):
        for seed, s in units:
            self._session(engine, self.batches(seed, s), rng_for(self.name, seed, s, "del"),
                          log, tracer)
            log.floor.window()

    def _session(self, engine, batches, rng, log, tracer):
        live: list = []
        session = engine.stream()

        def step(name, records, call, expected=None):
            op = Op(records=records)
            done, rep = _timed(op, tracer, f"stream.{name}", call)
            if done and rep is None:
                op.ok = True
            elif done:
                _check(op, rep.output, expected, rep.reads, rep.writes, (rep.n,))
            log.active_seconds += op.latency
            log.ops.append(op)
            return op.ok

        for i, batch in enumerate(batches):
            if step("push", len(batch), lambda: session.push_many(batch)):
                live += batch
            if i % 2 == 1:
                picked = set(rng.sample(range(len(live)), min(self.DELETES, len(live))))
                doomed = [live[j] for j in sorted(picked)]

                def delete():
                    for key in doomed:
                        session.delete(key)

                if step("delete", 0, delete):
                    live = [k for j, k in enumerate(live) if j not in picked]
            if i % 4 == 3:
                live.sort()
                if step("pop_min", 0, lambda: session.pop_min(self.WINDOW),
                        live[: self.WINDOW]):
                    live = live[self.WINDOW:]
        live.sort()
        step("close", 0, session.close, live)

    def ledger_inputs(self, units):
        batches = self.batches(*units[0])
        distinct = [b for i, b in enumerate(batches) if self.KINDS[i % len(self.KINDS)] == "distinct"]
        return sum(distinct, []), [sum(batches, [])]


# ---------------------------------------------------------------------- #
# over the wire
# ---------------------------------------------------------------------- #
class WireJobs(Workload):
    """Small jobs over the wire: kernel work per job is small, so JSON,
    socket, dispatch, queueing and the plan cache dominate."""

    name = "wire-jobs"
    servers = 1
    CLIENTS = 2
    MIN_N, MAX_N = 500, 8000
    #: zipf jobs above the selection range fail today (defect probes)
    KINDS = ("distinct",) * 6 + ("dup-pair",) * 2 + ("few-distinct",) * 2
    ROUND = 16
    ROUNDS_PER_SECOND = 4.0

    def schedule(self, seed, seconds):
        rounds = []
        for r in range(_units(seconds, self.ROUNDS_PER_SECOND)):
            jobs = []
            for j in range(self.ROUND):
                rng = rng_for(self.name, seed, r, j)
                n = int(math.exp(rng.uniform(math.log(self.MIN_N), math.log(self.MAX_N))))
                data = make_keys(self.KINDS[(r * self.ROUND + j) % len(self.KINDS)], n, rng)
                jobs.append((data, sorted(data)))
            rounds.append(jobs)
        return rounds

    def open(self, children):
        (address,) = children.spawn_servers(1, PARAMS, workers=1)
        return [ServiceClient(*address) for _ in range(self.CLIENTS)]

    def close(self, clients):
        for client in clients:
            client.close()

    def probes(self, clients, seed):
        return run_probes(seed, SortEngine(PARAMS), client=clients[0])

    def warm(self, clients):
        for c, client in enumerate(clients):
            client.sort(make_keys("distinct", 300, rng_for(self.name, "warm", c)))

    def run(self, clients, units, log, tracer=NullTracer()):
        tracers = [tracer, tracer.__class__()]  # one span stack per client thread
        with ThreadPoolExecutor(self.CLIENTS) as pool:
            for jobs in units:
                ops = [Op(records=len(data)) for data, _ in jobs]
                t0 = time.perf_counter()
                futures = [
                    pool.submit(self._client_loop, clients[c], jobs[c::self.CLIENTS],
                                ops[c::self.CLIENTS], tracers[c])
                    for c in range(self.CLIENTS)
                ]
                for future in futures:
                    future.result()
                log.active_seconds += time.perf_counter() - t0
                log.ops += ops
                log.floor.window()
        if tracer.enabled:
            tracer.spans += tracers[1].spans

    @staticmethod
    def _client_loop(client, jobs, ops, tracer):
        for (data, ref), op in zip(jobs, ops):
            done, rec = _timed(op, tracer, "wire.job",
                               lambda: client.result(client.submit(data)))
            if done:
                _check(op, rec["output"], ref, rec["reads"], rec["writes"],
                       (rec["algorithm"],))

    def ledger_inputs(self, units):
        jobs = [data for data, _ in units[0]]
        kernel_input = max((d for d in jobs if len(set(d)) == len(d)), key=len)
        return kernel_input, jobs

    def plan_sizes(self, units):
        return [len(data) for jobs in units for data, _ in jobs]


class ClusterScatter(Workload):
    """One scatter-gather at a time: bulk shards on the wire, remote
    kernels, the serial splitter pass and the shard merge."""

    name = "cluster-scatter"
    servers = 2
    N = 200_000
    KINDS = ("distinct", "dup-pair", "distinct", "few-distinct")
    CYCLES_PER_SECOND = 0.33

    def schedule(self, seed, seconds):
        inputs = []
        for i, kind in enumerate(self.KINDS):
            data = make_keys(kind, self.N, rng_for(self.name, seed, i))
            inputs.append((kind, data, sorted(data)))
        return inputs * _units(seconds, self.CYCLES_PER_SECOND)

    def open(self, children):
        hosts = children.spawn_servers(self.servers, PARAMS, workers=1)
        return ClusterCoordinator(ClusterSpec(hosts=tuple(hosts)), PARAMS)

    def close(self, coordinator):
        coordinator.close()

    def probes(self, coordinator, seed):
        return run_probes(seed, SortEngine(PARAMS), coordinator=coordinator)

    def warm(self, coordinator):
        coordinator.sort(make_keys("distinct", 4000, rng_for(self.name, "warm")))

    def run(self, coordinator, units, log, tracer=NullTracer()):
        for _kind, data, ref in units:
            op = Op(records=len(data))
            done, rep = _timed(op, tracer, "cluster.sort", lambda: coordinator.sort(data))
            if done:
                x = rep.extras
                _check(op, rep.output, ref, rep.reads + x["remote_reads"],
                       rep.writes + x["remote_writes"], tuple(x["shard_sizes"]))
            log.active_seconds += op.latency
            log.ops.append(op)
            log.floor.window()

    def ledger_inputs(self, units):
        return units[0][1], [data for _kind, data, _ref in units[: len(self.KINDS)]]


def _check(op: Op, output, expected, reads, writes, exact) -> None:
    """Mark ``op`` by comparing its output with ``sorted(input)``."""
    op.ok = output == expected
    if op.ok:
        op.reads, op.writes, op.exact = reads, writes, exact
    else:
        op.error = "WrongOutput"


WORKLOADS = {w.name: w for w in (EngineBulk(), WireJobs(), ClusterScatter(), StreamUpdates())}
