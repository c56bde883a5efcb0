"""Tests for the process-executor batch path: ``SortEngine(...,
executor="process").batch`` deals the jobs across persistent worker
processes, each with its own plan cache."""

import os

import pytest

from repro import MachineParams, PlanCache, SortEngine, SortJob
from repro.service import WorkerDiedError
from repro.workloads import make_scenario, random_permutation

SMALL = MachineParams(M=64, B=8, omega=8)


def _mixed_jobs(count=12, base_n=200):
    mix = ["uniform", "presorted", "reversed", "duplicates"]
    return [
        SortJob(
            data=make_scenario(mix[i % 4], base_n + 31 * i, seed=i),
            params=SMALL,
            label=f"{mix[i % 4]}/{i}",
        )
        for i in range(count)
    ]


def _batch(jobs, executor="process", workers=None, **kwargs):
    """One batch on a fresh engine, torn down afterwards."""
    with SortEngine(SMALL, executor=executor, workers=workers) as engine:
        return engine.batch(jobs, **kwargs)


def _same_n_jobs(count, n):
    return [SortJob(data=random_permutation(n, seed=i), params=SMALL) for i in range(count)]


class _Exiter:
    """Record whose first comparison kills the worker process outright."""

    def __init__(self, v):
        self.v = v

    def __lt__(self, other):
        os._exit(3)

    def __le__(self, other):  # pragma: no cover - whichever fires first
        os._exit(3)


class TestPartitioning:
    def test_more_shards_than_jobs_drops_empties(self):
        # idle workers contribute no (0, 0) entry to the per-worker stats
        report = _batch(_mixed_jobs(2), workers=5)
        assert report.jobs_completed == 2
        assert 1 <= len(report.shard_plan_stats) <= 2
        assert all(h + m >= 1 for h, m in report.shard_plan_stats)


class TestProcessExecutor:
    def test_thread_and_process_identical_aggregates(self):
        # identical model-level totals from both executors on the identical
        # job list (same per-job simulation, only scheduling differs)
        jobs = _mixed_jobs(12)
        thread = _batch(jobs, executor="thread")
        process = _batch(jobs, workers=2)
        assert not thread.failures and not process.failures
        assert process.total_reads == thread.total_reads
        assert process.total_writes == thread.total_writes
        assert process.total_cost() == thread.total_cost()
        assert process.total_records == thread.total_records
        assert process.algorithm_mix() == thread.algorithm_mix()
        assert [r.n for r in process.reports] == [r.n for r in thread.reports]
        assert process.executor == "process" and thread.executor == "thread"

    def test_reports_in_submission_order(self):
        jobs = [
            SortJob(data=random_permutation(100 + i, seed=i), params=SMALL)
            for i in range(10)
        ]
        report = _batch(jobs, workers=3)
        assert [r.n for r in report.reports] == [100 + i for i in range(10)]

    def test_failures_captured_per_job(self):
        good = SortJob(data=random_permutation(100, seed=0), params=SMALL)
        bad = SortJob(data=[3, 1, 2], params=SMALL, algorithm="bogosort", label="bad")
        report = _batch([good, bad, good], workers=2)
        assert report.jobs_completed == 2
        assert len(report.failures) == 1
        assert report.failures[0].index == 1
        assert report.failures[0].label == "bad"
        assert isinstance(report.failures[0].error, ValueError)

    def test_pinned_ram_oversized_is_a_captured_failure(self):
        # a job whose pinned "ram" algorithm exceeds M is recorded as a
        # JobFailure, not dropped — and the rest of the batch completes
        jobs = [
            SortJob(data=random_permutation(500, seed=0), params=SMALL,
                    algorithm="ram", label="too-big"),
            SortJob(data=random_permutation(50, seed=1), params=SMALL,
                    algorithm="ram", label="fits"),
        ]
        report = _batch(jobs, workers=2)
        assert report.jobs_completed == 1
        assert [f.label for f in report.failures] == ["too-big"]
        assert isinstance(report.failures[0].error, ValueError)
        summary = report.summary()
        assert summary["jobs"] == 1 and summary["failed"] == 1

    def test_check_sorted_enforced_in_workers(self):
        jobs = [SortJob(data=random_permutation(300, seed=7), params=SMALL)]
        report = _batch(jobs, workers=1, check_sorted=True)
        assert report.jobs_completed == 1 and not report.failures

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            _batch(_mixed_jobs(2), executor="gpu")

    def test_nonpositive_workers_rejected_by_both_backends(self):
        with SortEngine(SMALL) as engine:
            for executor in ("thread", "process"):
                with pytest.raises(ValueError, match="max_workers"):
                    engine.batch(_mixed_jobs(2), executor=executor, workers=0)

    def test_dead_shard_worker_fails_its_jobs_not_the_batch(self):
        # a worker death (OOM kill, segfault) fails only the job it was
        # running; the respawned pool completes the rest of the batch
        jobs = _mixed_jobs(4)
        jobs[1] = SortJob(data=[_Exiter(v) for v in range(20)], params=SMALL,
                          algorithm="mergesort", label="poison")
        report = _batch(jobs, workers=2)
        assert report.jobs_completed == 3
        assert [f.index for f in report.failures] == [1]
        assert isinstance(report.failures[0].error, WorkerDiedError)
        assert [r.n for r in report.reports] == [len(jobs[i].data) for i in (0, 2, 3)]

    def test_empty_batch(self):
        report = _batch([])
        assert report.jobs_completed == 0 and report.executor == "process"

    def test_per_shard_plan_caches_report_hits(self):
        # 8 jobs of the same n: every worker that ran a job planned once and
        # hit on the rest, so misses count the busy workers
        report = _batch(_same_n_jobs(8, 400), workers=2)
        assert report.plan_misses == len(report.shard_plan_stats)
        assert report.plan_hits + report.plan_misses == 8
        assert report.summary()["plan_hits"] == report.plan_hits


class TestShardUnits:
    def test_unpicklable_error_replaced_by_standin(self):
        from repro.service.workers import _picklable_error

        class Weird(Exception):
            def __init__(self, a, b):  # noqa: ARG002 - signature breaks pickling
                super().__init__(a)

        standin = _picklable_error(Weird("x", "y"))
        assert isinstance(standin, RuntimeError)
        assert "Weird" in str(standin)
        plain = ValueError("fine")
        assert _picklable_error(plain) is plain


class TestWarmCache:
    def test_warm_entries_eliminate_shard_misses(self):
        parent = PlanCache()
        parent.plan(400, SMALL)
        jobs = _same_n_jobs(8, 400)
        cold = _batch(jobs, workers=2)
        warm = _batch(jobs, workers=2, warm_cache=parent)
        assert cold.plan_misses == len(cold.shard_plan_stats)
        assert cold.plan_hits + cold.plan_misses == 8
        assert warm.plan_misses == 0 and warm.plan_hits == 8
        # identical model aggregates either way — warmth saves planning
        # compute, never changes plans
        assert warm.total_cost() == cold.total_cost()

    def test_warm_cache_accepts_snapshot_entries(self):
        parent = PlanCache()
        parent.plan(300, SMALL)
        report = _batch(_same_n_jobs(4, 300), workers=2,
                        warm_cache=parent.snapshot())
        assert report.plan_misses == 0 and report.plan_hits == 4

    def test_thread_mode_seeds_the_shared_cache(self):
        parent = PlanCache()
        parent.plan(250, SMALL)
        report = _batch(_same_n_jobs(3, 250), executor="thread", warm_cache=parent)
        assert report.plan_misses == 0 and report.plan_hits == 3


class TestPerShardStats:
    def test_merged_report_carries_per_shard_hit_miss(self):
        report = _batch(_same_n_jobs(8, 400), workers=2)
        stats = report.shard_plan_stats
        assert 1 <= len(stats) <= 2
        assert all(m == 1 for _, m in stats)
        assert sum(h + m for h, m in stats) == 8
        assert report.summary()["plan_per_shard"] == ",".join(
            f"{h}/{m}" for h, m in stats
        )

    def test_thread_mode_reports_no_shard_breakdown(self):
        report = _batch(_mixed_jobs(4), executor="thread")
        assert report.shard_plan_stats == []
        assert report.summary()["plan_per_shard"] == "-"
