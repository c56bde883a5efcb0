"""The asynchronous :class:`SortService`: submit jobs, get futures back.

Every pre-existing execution surface blocks: ``engine.sort`` until one sort
finishes, ``engine.batch`` until a whole list does.  A service that must
absorb heavy concurrent traffic needs the opposite shape — accept a job
*now*, return a handle, execute when a worker frees up — so this module
turns the engine into a job service:

* :meth:`SortService.submit` enqueues one job and returns a
  :class:`~repro.service.futures.SortFuture` immediately;
* dispatch is a **priority queue** (lower priority value runs first, FIFO
  within a priority — the submission ticket breaks ties), so latency-
  sensitive jobs overtake bulk backfill;
* the worker pool is **persistent**: thread workers or long-lived worker
  processes (:func:`repro.service.workers.spawn_persistent_worker`) that
  survive across submissions instead of being rebuilt per batch call, each
  keeping its plan cache warm across jobs;
* a worker process that dies (OOM kill, segfault) fails *only* its
  in-flight future with
  :class:`~repro.service.workers.WorkerDiedError` — the service respawns
  the worker and later submissions run normally;
* :meth:`SortService.gather` folds a list of futures back into the familiar
  :class:`~repro.planner.batch.BatchReport`, which is how
  :meth:`repro.engine.SortEngine.batch` is expressed: ``submit_many`` +
  ``gather`` over a service the engine keeps alive between calls.

Cost-model note: the *simulated* I/O accounting is unchanged — every job
still runs :func:`repro.planner.batch.execute_and_check` on its own
simulated machine.  The service only changes *scheduling*, which is why a
batch's reports are byte-identical to per-job ``engine.sort`` calls.

Admission control
-----------------
An unbounded queue is how overload corrupts a service: accepted work piles
up faster than workers drain it, every future's latency grows without
bound, and the process eventually dies holding everybody's jobs.  With
``max_queue`` set, :meth:`SortService.submit` applies one of three
admission policies when the queue is full:

* ``"reject"`` (default) — raise :class:`QueueFullError` immediately; the
  caller (or the wire protocol, which translates it to an ``overloaded``
  reply with a ``retry_after`` hint) decides when to come back;
* ``"block"`` — wait for a slot, bounded by the submit's
  ``admission_timeout`` (falling back to the service's ``block_timeout``);
  :class:`QueueFullError` on deadline expiry;
* ``"shed-lowest"`` — cancel the lowest-priority *pending* future to make
  room, provided the incoming job outranks it (strictly lower priority
  value); otherwise the incoming job is the lowest-value work and is
  rejected.  The shed future reports ``CANCELLED`` exactly like a caller
  cancellation.

Only queued (undispatched) jobs count against ``max_queue``; in-flight
jobs and control messages do not.
"""

from __future__ import annotations

import heapq
import itertools
import os
import threading
import time
from collections.abc import Iterable, Sequence
from concurrent.futures import CancelledError

from ..analysis.locksan import wrap_condition
from ..core.kernels import get_default_kernel
from ..models.params import MachineParams
from ..planner.batch import BatchReport, JobFailure, SortJob, execute_and_check
from ..planner.plan_cache import PlanCache
from ..testing import faults
from .backoff import Deadline
from .futures import SortFuture
from .workers import WorkerDiedError, spawn_persistent_worker, stop_persistent_worker

#: priority used for internal control messages (cache seeding) — beats any
#: caller priority so a warm() lands before jobs queued behind it
PRIORITY_CONTROL = float("-inf")

#: recognised admission policies for a bounded queue
ADMISSION_POLICIES = ("reject", "block", "shed-lowest")


class QueueFullError(RuntimeError):
    """Raised by :meth:`SortService.submit` when the bounded queue cannot
    admit the job under the configured policy.

    ``retry_after`` is the service's estimate (seconds) of when a retry is
    worth attempting — one average job's drain time — which the wire
    protocol forwards in its ``overloaded`` reply.
    """

    def __init__(self, message: str, *, queued: int = 0, max_queue: int = 0,
                 policy: str = "reject", retry_after: float = 0.05):
        super().__init__(message)
        self.queued = queued
        self.max_queue = max_queue
        self.policy = policy
        self.retry_after = retry_after


def default_pool_width(executor: str) -> int:
    """Pool width when the caller does not pin one: one worker per core for
    processes (that is the scale-out unit), the familiar capped-at-8 pool
    for GIL-bound threads."""
    cores = os.cpu_count() or 1
    return cores if executor == "process" else min(8, cores)


class _CacheView:
    """Duck-typed :class:`PlanCache` facade that counts one job's own
    hits/misses while delegating storage to the shared cache.

    Thread workers share the engine's cache; per-job deltas read off the
    shared counters would race, so each job plans through a private view.
    The shared cache's totals still advance (the view delegates), meaning
    cache-wide stats and per-job stats agree in sum.
    """

    __slots__ = ("inner", "hits", "misses")

    def __init__(self, inner: PlanCache):
        self.inner = inner
        self.hits = 0
        self.misses = 0

    def plan(self, n, params, algorithms=None, k_max=None, constants=None):
        plan, hit = self.inner.planned(n, params, algorithms, k_max, constants)
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        return plan


class _Entry:
    """One queue element: a job (with its future) or a control message."""

    __slots__ = ("priority", "seq", "future", "job", "check_sorted", "index", "control")

    def __init__(self, priority, seq, future=None, job=None, check_sorted=False,
                 index=0, control=None):
        self.priority = priority
        self.seq = seq
        self.future = future
        self.job = job
        self.check_sorted = check_sorted
        #: index passed to execute_and_check (batch position or ticket) —
        #: appears in check-sorted failure messages
        self.index = index
        #: ``("seed", entries)`` for control messages, ``None`` for jobs
        self.control = control

    def key(self):
        return (self.priority, self.seq)


class SortService:
    """Asynchronous job service over one :class:`~repro.engine.SortEngine`.

    Parameters
    ----------
    engine:
        The engine whose machine, plan cache and calibrated constants every
        job inherits.  A bare :class:`~repro.models.params.MachineParams`
        is also accepted (a private engine is built around it).
    workers / executor:
        Pool width and backend, defaulting to the engine's configuration
        (``executor="thread"`` shares the engine's plan cache under the
        GIL; ``executor="process"`` runs persistent worker processes, one
        worker-local plan cache each, for real multi-core throughput).
    warm_cache:
        A :class:`PlanCache` or snapshot entries to pre-seed planning with:
        thread mode seeds the shared cache once, process mode spawns every
        worker already holding the entries.
    max_queue / admission / block_timeout:
        Admission control (see the module docstring): with ``max_queue``
        set, a full queue rejects, blocks (up to ``block_timeout`` seconds
        unless the submit names its own ``admission_timeout``), or sheds
        the lowest-priority pending job per ``admission``.

    The service starts its pool immediately and accepts submissions until
    :meth:`shutdown`.  Usable as a context manager (drains on exit).
    """

    def __init__(
        self,
        engine=None,
        *,
        workers: int | None = None,
        executor: str | None = None,
        warm_cache=None,
        max_queue: int | None = None,
        admission: str = "reject",
        block_timeout: float | None = None,
    ):
        from ..engine import SortEngine

        if isinstance(engine, MachineParams):
            engine = SortEngine(engine)
        if engine is None:
            raise TypeError("SortService needs a SortEngine or MachineParams")
        self.engine = engine
        self.params = engine.params
        self.cache = engine.cache
        self.constants = engine.constants
        self.executor = executor if executor is not None else engine.executor
        if self.executor not in ("thread", "process"):
            raise ValueError(
                f"unknown executor {self.executor!r}; choose 'thread' or 'process'"
            )
        if workers is None:
            workers = engine.workers
        if workers is None:
            workers = default_pool_width(self.executor)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        if max_queue is not None and max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if admission not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {admission!r}; "
                f"choose from {ADMISSION_POLICIES}"
            )
        if block_timeout is not None and block_timeout < 0:
            raise ValueError(f"block_timeout must be >= 0, got {block_timeout}")
        self.max_queue = max_queue
        self.admission = admission
        self.block_timeout = block_timeout

        self._cond = wrap_condition(threading.Condition(), "SortService._cond")
        self._shared: list = []  # heap of (priority, seq, entry)
        # per-worker heaps, used only for warm()'s seed control messages
        self._pinned: list[list] = [[] for _ in range(workers)]
        self._pending_jobs = 0  # job entries currently queued (not control)
        self._seq = itertools.count()
        self._tickets = itertools.count()
        self._shutdown = False
        self.submitted = 0
        self.completed = 0
        self.cancelled = 0
        self.rejected = 0
        self.shed = 0
        self.respawns = 0
        self.records_sorted = 0  # records across successfully completed jobs
        self.busy_seconds = 0.0  # summed worker-side job wall-clock
        self._started = time.monotonic()

        warm_entries = (
            warm_cache.snapshot() if isinstance(warm_cache, PlanCache) else warm_cache
        )
        if warm_entries and self.executor == "thread":
            self.cache.seed(warm_entries)
        self._warm_entries = warm_entries if self.executor == "process" else None

        # one handle slot per worker (process mode); feeder/worker threads
        self._handles: list = [None] * workers
        self._threads: list[threading.Thread] = []
        for index in range(workers):
            if self.executor == "process":
                self._handles[index] = spawn_persistent_worker(
                    self.constants, self._warm_entries
                )
                target = self._process_worker
            else:
                target = self._thread_worker
            t = threading.Thread(
                target=target, args=(index,), daemon=True,
                name=f"sort-service-{self.executor}-{index}",
            )
            t.start()
            self._threads.append(t)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SortService(workers={self.workers}, executor={self.executor!r}, "
            f"queued={self.queued()}, shutdown={self._shutdown})"
        )

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def _normalize(self, job) -> SortJob:
        from dataclasses import replace

        if not isinstance(job, SortJob):
            job = SortJob(data=job)
        if job.params is None:
            job = replace(job, params=self.params)
        return job

    def submit(
        self,
        job,
        priority: float = 0,
        *,
        check_sorted: bool = False,
        admission_timeout: float | None = None,
    ) -> SortFuture:
        """Enqueue one job; return its :class:`SortFuture` immediately.

        ``job`` is a :class:`SortJob` or a bare data sequence (wrapped into
        an adaptive job on the service's machine).  ``priority``: lower
        runs first, FIFO within equal priorities; any idle worker pulls it.

        With a bounded queue (``max_queue``), a full queue applies the
        service's admission policy — see the module docstring.
        ``admission_timeout`` bounds a ``"block"`` wait for this one submit
        (default: the service's ``block_timeout``); the other policies
        ignore it.  Raises :class:`QueueFullError` when the job cannot be
        admitted.
        """
        job = self._normalize(job)
        # a non-numeric (or NaN) priority would poison the heap invariant —
        # one bad key makes later sifts raise mid-pop and kills the worker
        # thread that hit it — so reject it at the door
        if not isinstance(priority, (int, float)) or (
            isinstance(priority, float) and priority != priority
        ):
            raise TypeError(f"priority must be a real number, got {priority!r}")
        victim: _Entry | None = None
        with self._cond:
            if self._shutdown:
                raise RuntimeError("service is shut down")
            victim = self._admit_locked(priority, admission_timeout)
            ticket = next(self._tickets)
            future = SortFuture(ticket, job=job, priority=priority)
            entry = _Entry(priority, next(self._seq), future=future, job=job,
                           check_sorted=check_sorted, index=ticket)
            heapq.heappush(self._shared, (entry.key(), entry))
            self._pending_jobs += 1
            self.submitted += 1
            self._cond.notify_all()
        if victim is not None:
            # cancel outside the lock: cancel() fires done-callbacks in the
            # calling thread, and a callback re-entering the service (stats,
            # another submit) under the held condition would self-deadlock
            victim.future.cancel()
            with self._cond:
                self.shed += 1
                self.cancelled += 1
        return future

    # ------------------------------------------------------------------ #
    # admission control (bounded queue)
    # ------------------------------------------------------------------ #
    def _retry_after_locked(self) -> float:
        """Overload back-pressure hint: about one average job's drain."""
        if self.completed:
            return max(0.01, round(self.busy_seconds / self.completed, 4))
        return 0.05

    def retry_hint(self) -> float:
        """Public back-pressure hint (seconds until a retry is plausible);
        servers forward this to shed clients as ``retry_after``."""
        with self._cond:
            return self._retry_after_locked()

    def _queue_full_locked(self, message: str) -> QueueFullError:
        # caller holds _cond (the _locked suffix is the contract)
        self.rejected += 1  # reprolint: disable=lock-discipline
        return QueueFullError(
            message,
            queued=self._pending_jobs,
            max_queue=self.max_queue or 0,
            policy=self.admission,
            retry_after=self._retry_after_locked(),
        )

    def _admit_locked(self, priority: float, admission_timeout: float | None):
        """Admit one job under the bounded-queue policy (caller holds the
        condition).  Returns the entry to shed (cancel outside the lock),
        or ``None``; raises :class:`QueueFullError` when inadmissible."""
        if self.max_queue is None:
            return None
        deadline: Deadline | None = None
        while self._pending_jobs >= self.max_queue:
            if self.admission == "reject":
                raise self._queue_full_locked(
                    f"queue full ({self._pending_jobs}/{self.max_queue}); "
                    "admission policy 'reject'"
                )
            if self.admission == "shed-lowest":
                victim = self._shed_victim_locked(priority)
                if victim is None:
                    raise self._queue_full_locked(
                        f"queue full ({self._pending_jobs}/{self.max_queue}) "
                        "and no pending job has lower priority than "
                        f"{priority!r}; admission policy 'shed-lowest'"
                    )
                return victim
            # "block": wait for a slot, bounded by the deadline
            if deadline is None:
                deadline = Deadline(
                    admission_timeout if admission_timeout is not None
                    else self.block_timeout
                )
            remaining = deadline.remaining()
            if remaining is not None and remaining <= 0:
                raise self._queue_full_locked(
                    f"queue full ({self._pending_jobs}/{self.max_queue}); "
                    "admission policy 'block' deadline expired"
                )
            self._cond.wait(remaining)
            if self._shutdown:
                raise RuntimeError("service is shut down")
        return None

    def _shed_victim_locked(self, priority: float) -> _Entry | None:
        """Pop the lowest-priority pending job entry (highest key) from
        the shared queue, provided it ranks strictly below the incoming
        ``priority``.  Caller holds the condition and cancels the returned
        entry's future outside it."""
        if not self._shared:
            return None
        pos = max(range(len(self._shared)), key=lambda i: self._shared[i][1].key())
        victim = self._shared[pos][1]
        if not victim.priority > priority:
            return None
        self._shared.pop(pos)
        heapq.heapify(self._shared)
        # caller holds _cond (the _locked suffix is the contract)
        self._pending_jobs -= 1  # reprolint: disable=lock-discipline
        return victim

    def submit_many(
        self,
        jobs: Sequence,
        priority: float = 0,
        *,
        check_sorted: bool = False,
    ) -> list[SortFuture]:
        """Submit a batch; return its futures in submission order."""
        return [self.submit(job, priority, check_sorted=check_sorted) for job in jobs]

    def map(self, datasets: Iterable, priority: float = 0):
        """Sort many datasets; return an iterator of their
        :class:`~repro.api.SortReport`\\ s in submission order.

        Submission is eager (all jobs enter the queue before this returns);
        only the result consumption is lazy.  The first failing job raises
        when its result is reached, like :meth:`Executor.map`.
        """
        futures = self.submit_many(list(datasets), priority)

        def _results():
            for fut in futures:
                yield fut.result()

        return _results()

    # ------------------------------------------------------------------ #
    # cache warming
    # ------------------------------------------------------------------ #
    def warm(self, entries) -> int:
        """Seed planning with pre-computed entries (a :class:`PlanCache` or
        its snapshot): immediate for the shared thread cache, broadcast as a
        front-of-queue control message to every process worker."""
        if isinstance(entries, PlanCache):
            entries = entries.snapshot()
        entries = list(entries)
        if not entries:
            return 0
        if self.executor == "thread":
            return self.cache.seed(entries)
        with self._cond:
            if self._shutdown:
                raise RuntimeError("service is shut down")
            for w in range(self.workers):
                entry = _Entry(PRIORITY_CONTROL, next(self._seq),
                               control=("seed", entries))
                heapq.heappush(self._pinned[w], (entry.key(), entry))
            self._cond.notify_all()
        return len(entries)

    # ------------------------------------------------------------------ #
    # gathering
    # ------------------------------------------------------------------ #
    def gather(self, futures: Sequence[SortFuture]) -> BatchReport:
        """Wait for ``futures`` and fold them into a
        :class:`~repro.planner.batch.BatchReport` (reports in the given
        order, per-job failures captured, plan-cache stats aggregated —
        and broken down per worker in process mode, where each worker owns
        its cache).
        """
        t0 = time.perf_counter()
        report = BatchReport(executor=self.executor)
        per_worker: dict[int, list[int]] = {}
        for i, fut in enumerate(futures):
            label = getattr(fut.job, "label", "")
            try:
                rep = fut.result()
            except CancelledError as exc:
                report.failures.append(JobFailure(index=i, label=label, error=exc))
            except Exception as exc:  # noqa: BLE001 — captured per job by design
                report.failures.append(JobFailure(index=i, label=label, error=exc))
            else:
                report.reports.append(rep)
            if fut.plan_stats is not None:
                worker, dh, dm = fut.plan_stats
                report.plan_hits += dh
                report.plan_misses += dm
                acc = per_worker.setdefault(worker, [0, 0])
                acc[0] += dh
                acc[1] += dm
        if self.executor == "process":
            report.shard_plan_stats = [
                tuple(per_worker[w]) for w in sorted(per_worker)
            ]
        report.wall_seconds = time.perf_counter() - t0
        return report

    # ------------------------------------------------------------------ #
    # worker loops
    # ------------------------------------------------------------------ #
    def _next_entry(self, index: int) -> _Entry | None:
        """Block until an entry is available for worker ``index`` (its pinned
        queue or the shared queue, whichever holds the best key) or the
        service is shut down with nothing left to drain."""
        with self._cond:
            while True:
                pinned = self._pinned[index]
                best = None
                if self._shared and pinned:
                    best = self._shared if self._shared[0][0] <= pinned[0][0] else pinned
                elif self._shared:
                    best = self._shared
                elif pinned:
                    best = pinned
                if best is not None:
                    entry = heapq.heappop(best)[1]
                    if entry.control is None:
                        self._pending_jobs -= 1
                        if self.max_queue is not None:
                            # wake "block"-policy submitters waiting on a slot
                            self._cond.notify_all()
                    return entry
                if self._shutdown:
                    return None
                self._cond.wait()

    def _finish(self, future: SortFuture, worker: int, hits: int, misses: int,
                result=None, error: BaseException | None = None,
                wall: float = 0.0, records: int = 0,
                cpu: float | None = None) -> None:
        future.plan_stats = (worker, hits, misses)
        future.wall_seconds = wall
        future.cpu_seconds = wall if cpu is None else cpu
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)
        with self._cond:
            self.completed += 1
            self.busy_seconds += wall
            if error is None:
                self.records_sorted += records

    def _thread_worker(self, index: int) -> None:
        while True:
            entry = self._next_entry(index)
            if entry is None:
                return
            if entry.control is not None:  # seeds are immediate for threads
                continue
            fut = entry.future
            if not fut.set_running_or_notify_cancel():
                with self._cond:
                    self.cancelled += 1
                continue
            view = _CacheView(self.cache)
            records = len(entry.job.data) if entry.job.data is not None else 0
            t0 = time.perf_counter()
            c0 = time.thread_time()  # this worker's CPU, contention-free
            try:
                plan = faults.active()
                if plan is not None:
                    # thread workers cannot die without taking the pool down,
                    # so injected "worker death" fails the in-flight job
                    plan.check("worker-death", f"thread worker {index}")
                rep = execute_and_check(
                    entry.index, entry.job, cache=view,
                    constants=self.constants, check_sorted=entry.check_sorted,
                )
            except Exception as exc:  # noqa: BLE001 — captured per job by design
                self._finish(fut, index, view.hits, view.misses, error=exc,
                             wall=time.perf_counter() - t0, records=records,
                             cpu=time.thread_time() - c0)
            else:
                self._finish(fut, index, view.hits, view.misses, result=rep,
                             wall=time.perf_counter() - t0, records=records,
                             cpu=time.thread_time() - c0)

    def _process_worker(self, index: int) -> None:
        """Feeder thread for one persistent worker process: one in-flight
        job at a time over the lockstep pipe protocol."""
        while True:
            entry = self._next_entry(index)
            if entry is None:
                break
            handle = self._handles[index]
            if handle is None:  # respawn was refused (interpreter shutdown)
                if entry.future is not None:
                    entry.future.cancel()
                continue
            proc, conn = handle
            if entry.control is not None:
                try:
                    conn.send(entry.control)
                    conn.recv()  # ("seeded", n, 0, 0)
                except (EOFError, OSError, BrokenPipeError):
                    self._respawn(index)
                continue
            fut = entry.future
            if not fut.set_running_or_notify_cancel():
                with self._cond:
                    self.cancelled += 1
                continue
            records = len(entry.job.data) if entry.job.data is not None else 0
            t0 = time.perf_counter()
            if faults.fire("worker-death"):
                # injected worker death takes the REAL failure path: kill the
                # child, let the pipe EOF below raise, fail only this future,
                # respawn — exactly what an OOM kill looks like
                proc.kill()
            try:
                # ship the submitting process's block-kernel mode with the
                # job — module globals do not cross the process boundary
                conn.send(("job", entry.index, entry.job, entry.check_sorted,
                           get_default_kernel()))
                status, payload, dh, dm = conn.recv()
            except (EOFError, OSError, BrokenPipeError) as exc:
                # the worker process died mid-job: fail ONLY this future,
                # respawn the worker, keep serving the queue
                self._respawn(index)
                self._finish(
                    fut, index, 0, 0,
                    error=WorkerDiedError(
                        f"worker {index} died while running job "
                        f"{entry.index} ({getattr(entry.job, 'label', '')!r}): "
                        f"{exc!r}"
                    ),
                    wall=time.perf_counter() - t0, records=records,
                )
                continue
            wall = time.perf_counter() - t0
            if status == "ok":
                self._finish(fut, index, dh, dm, result=payload,
                             wall=wall, records=records)
            else:
                self._finish(fut, index, dh, dm, error=payload,
                             wall=wall, records=records)
        proc_handle = self._handles[index]
        if proc_handle is not None:
            stop_persistent_worker(*proc_handle)
            with self._cond:
                self._handles[index] = None

    def _respawn(self, index: int) -> None:
        proc, conn = self._handles[index]
        try:
            conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass
        proc.join(0.1)
        if proc.is_alive():  # pragma: no cover - death races are timing-bound
            proc.terminate()
            proc.join(1.0)
        if not threading.main_thread().is_alive():
            # interpreter shutdown: forking now would leak an orphan that
            # outlives the parent; park the slot instead
            with self._cond:  # pragma: no cover - shutdown race
                self._handles[index] = None
            return
        # fork outside the lock (slow); publish the new handle under it
        handle = spawn_persistent_worker(self.constants, self._warm_entries)
        with self._cond:
            self._handles[index] = handle
            self.respawns += 1

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def queued(self) -> int:
        """Jobs accepted but not yet dispatched."""
        with self._cond:
            return len(self._shared) + sum(len(p) for p in self._pinned)

    def stats(self) -> dict:
        """Service-level counters — the ops dashboard row.

        Throughput fields: ``records_sorted`` (across successfully completed
        jobs), ``busy_seconds`` (summed worker-side job wall-clock),
        ``records_per_sec`` (records over busy time — per-worker execution
        throughput, the number the kernel layer moves), ``avg_job_seconds``
        and ``uptime_seconds``.
        """
        with self._cond:
            completed = self.completed
            busy = self.busy_seconds
            return {
                "executor": self.executor,
                "workers": self.workers,
                "submitted": self.submitted,
                "completed": completed,
                "cancelled": self.cancelled,
                "rejected": self.rejected,
                "shed": self.shed,
                "max_queue": self.max_queue,
                "admission": self.admission,
                "queued": len(self._shared) + sum(len(p) for p in self._pinned),
                "respawns": self.respawns,
                "shutdown": self._shutdown,
                "records_sorted": self.records_sorted,
                "busy_seconds": round(busy, 6),
                "records_per_sec": round(self.records_sorted / busy, 1) if busy else 0.0,
                "avg_job_seconds": round(busy / completed, 6) if completed else 0.0,
                "uptime_seconds": round(time.monotonic() - self._started, 3),
            }

    def shutdown(self, drain: bool = True, wait: bool = True,
                 timeout: float | None = None) -> None:
        """Stop accepting submissions and wind the pool down.

        ``drain=True`` executes everything already queued before workers
        exit; ``drain=False`` cancels all queued (undispatched) jobs —
        their futures raise ``CancelledError`` — while in-flight jobs still
        finish.  ``wait`` joins the worker threads (pass ``False`` to
        return immediately, e.g. while a job you intend to unblock is still
        in flight).  Idempotent.
        """
        with self._cond:
            already = self._shutdown
            self._shutdown = True
            if not drain and not already:
                doomed = [e for _, e in self._shared]
                doomed += [e for p in self._pinned for _, e in p]
                self._shared.clear()
                for p in self._pinned:
                    p.clear()
                self._pending_jobs = 0
            else:
                doomed = []
            self._cond.notify_all()
        for entry in doomed:
            if entry.future is not None and entry.future.cancel():
                with self._cond:
                    self.cancelled += 1
        if wait:
            for t in self._threads:
                t.join(timeout)

    def __enter__(self) -> "SortService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)
