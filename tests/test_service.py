"""Tests for the asynchronous SortService: futures, priority dispatch,
persistent pools, worker-death isolation, and batch parity."""

import os
import threading
import time

import pytest
from concurrent.futures import CancelledError

from repro import MachineParams, SortEngine, SortJob
from repro.planner.batch import BatchReport, JobFailure
from repro.service import (
    CANCELLED,
    FINISHED,
    PENDING,
    RUNNING,
    SortFuture,
    SortService,
    WorkerDiedError,
    wait,
)
from repro.workloads import make_scenario, random_permutation

PARAMS = MachineParams(M=64, B=8, omega=8)


def _jobs(count=6, base_n=200):
    mix = ["uniform", "presorted", "reversed", "duplicates"]
    return [
        SortJob(
            data=make_scenario(mix[i % 4], base_n + 17 * i, seed=i),
            params=PARAMS,
            label=f"{mix[i % 4]}/{i}",
        )
        for i in range(count)
    ]


class _Gate:
    """Record whose comparisons block on an event — pins a worker so queue
    behaviour behind it is observable deterministically."""

    def __init__(self, v, started, release):
        self.v = v
        self.started = started
        self.release = release

    def __lt__(self, other):
        self.started.set()
        assert self.release.wait(10), "gate never released"
        return self.v < other.v

    def __le__(self, other):  # plain: only sorting itself should block
        return self.v <= other.v


class _Exiter:
    """Record whose first comparison kills the worker process outright —
    simulates an OOM kill / segfault mid-job (os._exit skips all cleanup)."""

    def __init__(self, v):
        self.v = v

    def __lt__(self, other):
        os._exit(3)

    def __le__(self, other):  # pragma: no cover - whichever fires first
        os._exit(3)


def _gated_service(workers=1):
    """A 1-thread service whose worker is busy on a gate job; returns
    (service, gate_future, release_event)."""
    started, release = threading.Event(), threading.Event()
    svc = SortService(PARAMS, workers=workers, executor="thread")
    gate = svc.submit(
        SortJob(
            data=[_Gate(v, started, release) for v in (3, 1, 2)],
            params=PARAMS,
            algorithm="mergesort",
            label="gate",
        )
    )
    assert started.wait(10), "gate job never dispatched"
    return svc, gate, release


# ---------------------------------------------------------------------- #
# future unit semantics
# ---------------------------------------------------------------------- #
class TestSortFuture:
    def test_result_and_callback(self):
        fut = SortFuture(0)
        seen = []
        fut.add_done_callback(lambda f: seen.append(f.state))
        assert fut.state == PENDING and not fut.done()
        assert fut.set_running_or_notify_cancel()
        assert fut.running()
        fut.set_result("report")
        assert fut.result() == "report"
        assert fut.exception() is None
        assert fut.done() and fut.state == FINISHED
        assert seen == [FINISHED]
        # late callback fires immediately
        fut.add_done_callback(lambda f: seen.append("late"))
        assert seen == [FINISHED, "late"]

    def test_exception_propagates(self):
        fut = SortFuture(1)
        fut.set_running_or_notify_cancel()
        fut.set_exception(ValueError("bad"))
        with pytest.raises(ValueError, match="bad"):
            fut.result()
        assert isinstance(fut.exception(), ValueError)

    def test_cancel_only_while_pending(self):
        fut = SortFuture(2)
        assert fut.cancel() and fut.cancelled()
        assert fut.cancel()  # idempotent
        with pytest.raises(CancelledError):
            fut.result()
        running = SortFuture(3)
        running.set_running_or_notify_cancel()
        assert not running.cancel()
        running.set_result("r")
        assert not running.cancel()

    def test_cancelled_job_is_skipped_by_workers(self):
        fut = SortFuture(4)
        assert fut.cancel()
        assert not fut.set_running_or_notify_cancel()

    def test_result_timeout(self):
        fut = SortFuture(5)
        with pytest.raises(TimeoutError):
            fut.result(timeout=0.01)

    def test_callback_errors_are_swallowed(self):
        fut = SortFuture(6)
        fut.add_done_callback(lambda f: 1 / 0)
        fut.set_running_or_notify_cancel()
        fut.set_result("fine")  # must not raise
        assert fut.result() == "fine"

    def test_wait_partitions_done_and_not_done(self):
        done_fut, pending_fut = SortFuture(7), SortFuture(8)
        done_fut.set_running_or_notify_cancel()
        done_fut.set_result("r")
        done, not_done = wait([done_fut, pending_fut], timeout=0.05)
        assert done == [done_fut] and not_done == [pending_fut]


# ---------------------------------------------------------------------- #
# submission / dispatch
# ---------------------------------------------------------------------- #
class TestSubmission:
    def test_submit_returns_live_future(self):
        with SortService(PARAMS, workers=2) as svc:
            data = random_permutation(300, seed=1)
            fut = svc.submit(data)
            rep = fut.result(timeout=30)
            assert rep.output == sorted(data)
            assert fut.done() and fut.plan_stats is not None

    def test_bare_sequences_and_params_inheritance(self):
        with SortService(PARAMS, workers=1) as svc:
            fut = svc.submit(random_permutation(100, seed=2))
            assert fut.job.params == PARAMS
            assert fut.result(timeout=30).is_sorted()

    def test_tickets_are_monotonic(self):
        with SortService(PARAMS, workers=1) as svc:
            futs = svc.submit_many(_jobs(4))
            assert [f.ticket for f in futs] == [0, 1, 2, 3]

    def test_map_yields_reports_in_submission_order(self):
        with SortService(PARAMS, workers=3) as svc:
            datasets = [random_permutation(100 + 13 * i, seed=i) for i in range(5)]
            reports = list(svc.map(datasets))
            assert [r.n for r in reports] == [100 + 13 * i for i in range(5)]
            assert all(r.is_sorted() for r in reports)

    def test_job_failure_travels_through_future(self):
        with SortService(PARAMS, workers=1) as svc:
            fut = svc.submit(SortJob(data=[3, 1, 2], params=PARAMS, algorithm="bogosort"))
            with pytest.raises(ValueError, match="unknown algorithm"):
                fut.result(timeout=30)

    def test_bad_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            SortService(PARAMS, executor="gpu")

    def test_bad_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            SortService(PARAMS, workers=0)

    def test_non_numeric_priority_rejected_before_queueing(self):
        # a string (or NaN) priority would poison the heap and kill the
        # worker thread that next pops it — must be refused at submit()
        with SortService(PARAMS, workers=1) as svc:
            with pytest.raises(TypeError, match="priority"):
                svc.submit(random_permutation(10, seed=0), priority="5")
            with pytest.raises(TypeError, match="priority"):
                svc.submit(random_permutation(10, seed=0), priority=float("nan"))
            # the queue survived: a normal submission still runs
            assert svc.submit(random_permutation(10, seed=0)).result(30).is_sorted()


# ---------------------------------------------------------------------- #
# priority scheduling
# ---------------------------------------------------------------------- #
class TestPriority:
    def test_priority_order_fifo_within_priority(self):
        # single busy worker: everything below queues; completion order
        # under one worker IS dispatch order
        svc, gate, release = _gated_service()
        order = []
        for label, prio in [("C", 5), ("A", 1), ("B", 1), ("D", 0)]:
            fut = svc.submit(
                SortJob(data=[2, 1], params=PARAMS, label=label), priority=prio
            )
            fut.add_done_callback(lambda f: order.append(f.job.label))
        release.set()
        gate.result(timeout=10)
        svc.shutdown(drain=True)
        assert order == ["D", "A", "B", "C"]

    def test_default_priority_is_fifo(self):
        svc, gate, release = _gated_service()
        order = []
        for label in "abcd":
            fut = svc.submit(SortJob(data=[2, 1], params=PARAMS, label=label))
            fut.add_done_callback(lambda f: order.append(f.job.label))
        release.set()
        svc.shutdown(drain=True)
        assert order == list("abcd")


# ---------------------------------------------------------------------- #
# cancellation against a live service
# ---------------------------------------------------------------------- #
class TestCancellation:
    def test_cancel_before_dispatch(self):
        svc, gate, release = _gated_service()
        victim = svc.submit(SortJob(data=[2, 1], params=PARAMS, label="victim"))
        assert victim.cancel()
        release.set()
        svc.shutdown(drain=True)
        assert victim.cancelled()
        with pytest.raises(CancelledError):
            victim.result()
        assert svc.stats()["cancelled"] == 1

    def test_cancel_after_dispatch_fails(self):
        svc, gate, release = _gated_service()
        assert gate.running()
        assert not gate.cancel()
        release.set()
        assert gate.result(timeout=10).is_sorted()
        svc.shutdown()


# ---------------------------------------------------------------------- #
# shutdown semantics
# ---------------------------------------------------------------------- #
class TestShutdown:
    def test_drain_true_finishes_queued_jobs(self):
        svc = SortService(PARAMS, workers=2)
        futs = svc.submit_many(_jobs(6))
        svc.shutdown(drain=True)
        assert all(f.result().is_sorted() for f in futs)
        assert svc.stats()["completed"] == 6

    def test_drain_false_cancels_queued_but_not_in_flight(self):
        svc, gate, release = _gated_service()
        queued = svc.submit_many(_jobs(3))
        svc.shutdown(drain=False, wait=False)
        assert all(f.cancelled() for f in queued)
        release.set()
        # the in-flight gate job still completes
        assert gate.result(timeout=10).is_sorted()
        svc.shutdown()  # idempotent join

    def test_submit_after_shutdown_rejected(self):
        svc = SortService(PARAMS, workers=1)
        svc.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            svc.submit(random_permutation(10, seed=0))

    def test_context_manager_drains(self):
        with SortService(PARAMS, workers=2) as svc:
            futs = svc.submit_many(_jobs(4))
        assert all(f.done() for f in futs)


# ---------------------------------------------------------------------- #
# batch parity: engine.batch == submit_many + gather == per-job engine.sort
# ---------------------------------------------------------------------- #
def batch_fingerprint(report):
    """Everything in a BatchReport except wall-clock timing."""
    return {
        "executor": report.executor,
        "reports": [
            (r.algorithm, r.family, r.n, r.output, r.reads, r.writes, r.cost())
            for r in report.reports
        ],
        "failures": [(f.index, f.label, type(f.error).__name__) for f in report.failures],
        "plan_hits": report.plan_hits,
        "plan_misses": report.plan_misses,
        "shard_plan_stats": report.shard_plan_stats,
    }


def sequential_reference(jobs, executor):
    """The batch oracle: one ``SortEngine.sort`` call per job, in order, on
    one engine — the per-job code every batch worker runs."""
    engine = SortEngine(PARAMS)
    report = BatchReport(executor=executor)
    for i, job in enumerate(jobs):
        try:
            if job.algorithm is None:
                rep = engine.sort(job.data)
            else:
                rep = engine.sort(job.data, algorithm=job.algorithm, k=job.k)
        except Exception as exc:  # noqa: BLE001 — captured per job, as in a batch
            report.failures.append(JobFailure(index=i, label=job.label, error=exc))
        else:
            report.reports.append(rep)
    report.plan_hits = engine.cache.hits
    report.plan_misses = engine.cache.misses
    return report


class TestBatchShimParity:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_engine_batch_matches_execute_batch_reference(self, executor):
        jobs = _jobs(8)
        jobs[3] = SortJob(data=[3, 1, 2], params=PARAMS, algorithm="bogosort",
                          label="bad")
        jobs[5] = SortJob(data=random_permutation(300, seed=5), params=PARAMS,
                          algorithm="samplesort", k=2, label="pinned")
        # repeated shapes, so the plan cache sees hits as well as misses
        for i, like in ((6, 0), (7, 2)):
            jobs[i] = SortJob(data=random_permutation(len(jobs[like].data), seed=i),
                              params=PARAMS, label=f"again/{like}")
        reference = batch_fingerprint(sequential_reference(jobs, executor))
        with SortEngine(PARAMS, executor=executor, workers=2) as engine:
            got = batch_fingerprint(engine.batch(jobs))
        if executor == "process":
            # each worker process owns its plan cache: a shape first seen by
            # both workers misses twice, so only the total is pinned
            adaptive = sum(job.algorithm is None for job in jobs)
            assert got["plan_hits"] + got["plan_misses"] == adaptive
            assert sum(h + m for h, m in got["shard_plan_stats"]) == adaptive
            for key in ("plan_hits", "plan_misses", "shard_plan_stats"):
                del got[key], reference[key]
        assert got == reference

    def test_engine_batch_is_submit_many_plus_gather(self):
        jobs = _jobs(6)
        with SortEngine(PARAMS, workers=2) as engine:
            via_batch = engine.batch(jobs)
            svc = engine.service()
            via_futures = svc.gather(svc.submit_many(jobs))
        # second pass hits the now-warm shared cache; everything else equal
        a, b = batch_fingerprint(via_batch), batch_fingerprint(via_futures)
        assert a["reports"] == b["reports"]
        assert b["plan_hits"] == a["plan_hits"] + a["plan_misses"]
        assert b["plan_misses"] == 0

    def test_failures_keep_positions_and_types(self):
        jobs = _jobs(3)
        jobs[1] = SortJob(data=[3, 1, 2], params=PARAMS, algorithm="bogosort",
                          label="bad")
        with SortEngine(PARAMS, workers=2) as engine:
            report = engine.batch(jobs)
        assert report.jobs_completed == 2
        assert [f.index for f in report.failures] == [1]
        assert isinstance(report.failures[0].error, ValueError)

    def test_check_sorted_is_enforced(self):
        with SortEngine(PARAMS, workers=1) as engine:
            report = engine.batch(_jobs(2), check_sorted=True)
        assert report.jobs_completed == 2 and not report.failures

    def test_engine_pool_persists_across_batches(self):
        with SortEngine(PARAMS, workers=2) as engine:
            engine.batch(_jobs(3))
            svc1 = engine.service()
            engine.batch(_jobs(3))
            svc2 = engine.service()
            assert svc1 is svc2
            assert svc1.stats()["submitted"] == 6

    def test_empty_batch_short_circuits(self):
        with SortEngine(PARAMS) as engine:
            report = engine.batch([])
            assert report.jobs_completed == 0
            assert engine._services == {}  # no pool was ever built

    def test_default_width_batches_share_one_pool(self):
        # varying batch sizes with workers unset must NOT accumulate one
        # pool per distinct size on a long-lived engine
        with SortEngine(PARAMS) as engine:
            engine.batch(_jobs(1))
            engine.batch(_jobs(3))
            engine.batch(_jobs(5))
            assert len(engine._services) == 1


# ---------------------------------------------------------------------- #
# persistent process pool: plan-cache warmth + worker-death isolation
# ---------------------------------------------------------------------- #
class TestPersistentProcessPool:
    def test_worker_caches_stay_warm_across_submissions(self):
        # same job shape submitted twice: the second round must hit the
        # worker-local caches that survived the first round
        with SortService(PARAMS, workers=1, executor="process") as svc:
            jobs = [SortJob(data=random_permutation(400, seed=i), params=PARAMS)
                    for i in range(4)]
            first = svc.gather(svc.submit_many(jobs))
            second = svc.gather(svc.submit_many(jobs))
        assert first.plan_misses == 1 and first.plan_hits == 3
        assert second.plan_misses == 0 and second.plan_hits == 4

    def test_warm_broadcast_to_live_pool(self):
        from repro import PlanCache

        parent = PlanCache()
        parent.plan(400, PARAMS)
        with SortService(PARAMS, workers=2, executor="process") as svc:
            assert svc.warm(parent) == 1
            jobs = [SortJob(data=random_permutation(400, seed=i), params=PARAMS)
                    for i in range(4)]
            report = svc.gather(svc.submit_many(jobs))
        assert report.plan_misses == 0 and report.plan_hits == 4

    def test_dead_worker_fails_only_inflight_and_pool_respawns(self):
        # THE regression test for worker-death isolation under the
        # persistent pool: the poison job's comparisons os._exit the worker
        with SortService(PARAMS, workers=1, executor="process") as svc:
            before = svc.submit(
                SortJob(data=random_permutation(60, seed=3), params=PARAMS,
                        label="before")
            )
            poison = svc.submit(
                SortJob(data=[_Exiter(v) for v in range(20)], params=PARAMS,
                        algorithm="mergesort", label="poison")
            )
            after = svc.submit(
                SortJob(data=random_permutation(80, seed=4), params=PARAMS,
                        label="after")
            )
            assert before.result(timeout=60).is_sorted()
            with pytest.raises(WorkerDiedError, match="died while running"):
                poison.result(timeout=60)
            # the pool respawned: the next submission runs normally
            assert after.result(timeout=60).is_sorted()
            assert svc.stats()["respawns"] == 1

    def test_worker_death_in_wide_pool_spares_other_workers(self):
        with SortService(PARAMS, workers=2, executor="process") as svc:
            goods = [
                svc.submit(SortJob(data=random_permutation(120, seed=i),
                                   params=PARAMS, label=f"good{i}"))
                for i in range(4)
            ]
            poison = svc.submit(
                SortJob(data=[_Exiter(v) for v in range(20)], params=PARAMS,
                        algorithm="mergesort", label="poison")
            )
            tail = svc.submit(
                SortJob(data=random_permutation(90, seed=9), params=PARAMS,
                        label="tail")
            )
            with pytest.raises(WorkerDiedError):
                poison.result(timeout=60)
            assert all(g.result(timeout=60).is_sorted() for g in goods)
            assert tail.result(timeout=60).is_sorted()


# ---------------------------------------------------------------------- #
# stats
# ---------------------------------------------------------------------- #
class TestStats:
    def test_counters_track_lifecycle(self):
        svc = SortService(PARAMS, workers=2)
        futs = svc.submit_many(_jobs(4))
        [f.result(timeout=30) for f in futs]
        stats = svc.stats()
        assert stats["submitted"] == 4 and stats["completed"] == 4
        assert stats["executor"] == "thread" and stats["workers"] == 2
        svc.shutdown()
        assert svc.stats()["shutdown"]

    def test_queued_counts_undispatched(self):
        svc, gate, release = _gated_service()
        svc.submit_many(_jobs(3))
        assert svc.queued() == 3
        release.set()
        svc.shutdown(drain=True)
        assert svc.queued() == 0


class TestThroughputStats:
    def test_stats_report_throughput_fields(self):
        from repro import MachineParams
        from repro.service import SortService

        params = MachineParams(M=64, B=8, omega=8)
        datasets = [list(range(n, 0, -1)) for n in (50, 80, 120)]
        with SortService(params, workers=2, executor="thread") as svc:
            futures = svc.submit_many(datasets)
            report = svc.gather(futures)
            stats = svc.stats()
        assert not report.failures
        assert stats["records_sorted"] == sum(len(d) for d in datasets)
        assert stats["busy_seconds"] > 0
        assert stats["records_per_sec"] > 0
        assert stats["avg_job_seconds"] > 0
        assert stats["uptime_seconds"] >= 0
        # per-job wall-clock is stamped on every completed future
        for fut in futures:
            assert fut.wall_seconds is not None and fut.wall_seconds >= 0

    def test_failed_jobs_count_busy_time_but_not_records(self):
        from repro import MachineParams, SortJob
        from repro.service import SortService

        params = MachineParams(M=64, B=8, omega=8)
        with SortService(params, workers=1, executor="thread") as svc:
            bad = svc.submit(SortJob(data=[3, 1, 2], algorithm="no-such-algo"))
            good = svc.submit([5, 4, 6])
            assert bad.exception() is not None
            assert good.result().is_sorted()
            stats = svc.stats()
        assert stats["completed"] == 2
        assert stats["records_sorted"] == 3  # only the successful job's records
        assert bad.wall_seconds is not None
