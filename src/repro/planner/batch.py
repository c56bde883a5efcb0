"""Batch jobs and their aggregated report.

Production traffic is many sort requests, not one.  This module holds the
plain-data types a batch is made of — :class:`SortJob` in,
:class:`BatchReport` out (jobs/s, records/s, total asymmetric I/O cost,
per-family mix) — and :func:`execute_and_check`, the per-job semantics every
executor runs.  Execution itself belongs to the persistent
:class:`repro.service.SortService` pool behind
:meth:`repro.engine.SortEngine.batch`.

Jobs default to adaptive planning (``SortEngine.sort(data,
algorithm="auto")``); a job may pin ``algorithm`` (and ``k``) to force a
specific strategy.  One failing job does not abort the batch — failures are
captured per job and reported.

Model-level aggregates (reads / writes / cost) are executor-independent:
thread and process workers run the identical per-job simulation, only the
scheduling differs.  Adaptive planning goes through a :class:`PlanCache`
memo (the engine's own in thread mode, a worker-local one in process mode).
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field

from ..models.params import MachineParams
from .plan_cache import PlanCache


@dataclass
class SortJob:
    """One sort request: data + machine, optionally pinned to an algorithm.

    Plain data all the way down (a list, a frozen
    :class:`~repro.models.params.MachineParams`, strings) so jobs pickle
    cleanly across the process-pool boundary.

    ``params`` may be left ``None`` when the job runs through
    :meth:`~repro.engine.SortEngine.batch` or a
    :class:`~repro.service.SortService`, which fill in their machine.
    """

    data: Sequence
    params: MachineParams | None = None
    label: str = ""
    #: ``None`` → let the planner choose; otherwise one of
    #: :data:`~repro.planner.cost_model.PLANNABLE_ALGORITHMS`
    algorithm: str | None = None
    k: int | None = None


@dataclass
class JobFailure:
    """A job that raised, with enough context to reproduce it."""

    index: int
    label: str
    error: Exception


@dataclass
class BatchReport:
    """Aggregated outcome of one batch run."""

    #: successful reports, in job-submission order
    reports: list = field(default_factory=list)
    failures: list[JobFailure] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: which backend ran the batch (``"thread"`` or ``"process"``)
    executor: str = "thread"

    # ------------------------------------------------------------------ #
    @property
    def jobs_completed(self) -> int:
        return len(self.reports)

    @property
    def total_records(self) -> int:
        return sum(r.n for r in self.reports)

    @property
    def total_reads(self) -> int:
        return sum(r.reads for r in self.reports)

    @property
    def total_writes(self) -> int:
        return sum(r.writes for r in self.reports)

    def total_cost(self) -> float:
        """Summed per-job asymmetric cost (each at its own machine's omega)."""
        return float(sum(r.cost() for r in self.reports))

    @property
    def jobs_per_second(self) -> float:
        return self.jobs_completed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def records_per_second(self) -> float:
        return self.total_records / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def algorithm_mix(self) -> dict[str, int]:
        """How many jobs each algorithm *family* won (``"mergesort"``,
        ``"selection"``, ``"ram"``, …) — one bucket per algorithm, not one
        per ``(algorithm, k)`` label."""
        return dict(Counter(r.family for r in self.reports))

    def summary(self) -> dict:
        """One flat dict — the headline row of the batch."""
        return {
            "jobs": self.jobs_completed,
            "failed": len(self.failures),
            "records": self.total_records,
            "reads": self.total_reads,
            "writes": self.total_writes,
            "cost": self.total_cost(),
            "wall_s": round(self.wall_seconds, 4),
            "jobs/s": round(self.jobs_per_second, 2),
            "records/s": round(self.records_per_second, 1),
            "executor": self.executor,
        }

    def mix_rows(self) -> list[dict]:
        """Per-family breakdown rows (for ``format_table``)."""
        rows = []
        for name, count in sorted(self.algorithm_mix().items()):
            group = [r for r in self.reports if r.family == name]
            rows.append(
                {
                    "family": name,
                    "jobs": count,
                    "records": sum(r.n for r in group),
                    "reads": sum(r.reads for r in group),
                    "writes": sum(r.writes for r in group),
                    "cost": float(sum(r.cost() for r in group)),
                }
            )
        return rows


def _execute_job(job: SortJob, cache: PlanCache | None = None, constants=None):
    # local import: the engine imports this package (engine.batch → here)
    from ..engine import SortEngine

    if job.params is None:
        raise ValueError(
            f"job {job.label!r} has no machine params; run it through "
            "SortEngine.batch (which fills in the engine's machine) or set "
            "SortJob.params"
        )
    engine = SortEngine(job.params, constants=constants, cache=cache)
    if job.algorithm is None:
        return engine.sort(job.data, algorithm="auto")
    # a pinned "ram" job reports at block granularity so batch aggregates
    # stay in one currency
    return engine.sort(job.data, algorithm=job.algorithm, k=job.k)


def execute_and_check(
    index: int,
    job: SortJob,
    cache: PlanCache | None = None,
    constants=None,
    check_sorted: bool = False,
):
    """The per-job semantics shared by BOTH executors: run the job, enforce
    ``check_sorted``, raise on any problem (the caller records the
    :class:`JobFailure`).  Thread and process workers must not diverge here."""
    rep = _execute_job(job, cache=cache, constants=constants)
    if check_sorted and not rep.is_sorted():
        raise AssertionError(f"job {index} ({job.label!r}) output not sorted")
    return rep
