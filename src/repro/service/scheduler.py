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
  survive across submissions instead of being rebuilt per batch call;
* every worker runs one loop (:meth:`SortService._worker`): take the best
  queued job, skip it if it was cancelled, run it, time it, publish the
  counters, resolve the future.  Only "run it" depends on the executor —
  in the worker thread itself, or one lockstep pipe round-trip to the
  worker's process;
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
jobs do not.
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
from ..testing import faults
from .backoff import Deadline
from .futures import SortFuture
from .workers import WorkerDiedError, spawn_persistent_worker, stop_persistent_worker

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


class SortService:
    """Asynchronous job service over one :class:`~repro.engine.SortEngine`.

    Parameters
    ----------
    engine:
        The engine whose machine, plan cache and calibrated constants every
        job inherits; ``engine.constants`` is read at each dispatch.  A
        bare :class:`~repro.models.params.MachineParams` is also accepted
        (a private engine is built around it).
    workers / executor:
        Pool width and backend, defaulting to the engine's configuration
        (``executor="thread"`` plans through the engine's plan cache under
        the GIL; ``executor="process"`` runs persistent worker processes,
        one worker-local plan memo each, for real multi-core throughput).
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
        # heap of (priority, seq, future, check_sorted): the unique seq keeps
        # FIFO order within a priority and never lets two futures be compared
        self._queue: list = []
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

        # one handle slot per worker (process mode); feeder/worker threads
        self._handles: list = [None] * workers
        self._threads: list[threading.Thread] = []
        for index in range(workers):
            if self.executor == "process":
                self._handles[index] = spawn_persistent_worker()
            t = threading.Thread(
                target=self._worker, args=(index,), daemon=True,
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
        with self._cond:
            if self._shutdown:
                raise RuntimeError("service is shut down")
            victim = self._admit_locked(priority, admission_timeout)
            future = SortFuture(next(self._tickets), job=job, priority=priority)
            heapq.heappush(
                self._queue, (priority, next(self._seq), future, check_sorted)
            )
            self.submitted += 1
            self._cond.notify_all()
        if victim is not None:
            # cancel outside the lock: cancel() fires done-callbacks in the
            # calling thread, and a callback re-entering the service (stats,
            # another submit) under the held condition would self-deadlock
            victim.cancel()
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
            queued=len(self._queue),
            max_queue=self.max_queue or 0,
            policy=self.admission,
            retry_after=self._retry_after_locked(),
        )

    def _admit_locked(self, priority: float, admission_timeout: float | None):
        """Admit one job under the bounded-queue policy (caller holds the
        condition).  Returns the future to shed (cancel outside the lock),
        or ``None``; raises :class:`QueueFullError` when inadmissible."""
        if self.max_queue is None:
            return None
        deadline: Deadline | None = None
        while len(self._queue) >= self.max_queue:
            if self.admission == "reject":
                raise self._queue_full_locked(
                    f"queue full ({len(self._queue)}/{self.max_queue}); "
                    "admission policy 'reject'"
                )
            if self.admission == "shed-lowest":
                victim = self._shed_victim_locked(priority)
                if victim is None:
                    raise self._queue_full_locked(
                        f"queue full ({len(self._queue)}/{self.max_queue}) "
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
                    f"queue full ({len(self._queue)}/{self.max_queue}); "
                    "admission policy 'block' deadline expired"
                )
            self._cond.wait(remaining)
            if self._shutdown:
                raise RuntimeError("service is shut down")
        return None

    def _shed_victim_locked(self, priority: float) -> SortFuture | None:
        """Pop the lowest-priority pending job (highest key) from the
        queue, provided it ranks strictly below the incoming ``priority``.
        Caller holds the condition and cancels the returned future outside
        it."""
        if not self._queue:
            return None
        victim = max(self._queue)
        if not victim[0] > priority:
            return None
        self._queue.remove(victim)
        heapq.heapify(self._queue)
        return victim[2]

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
    # gathering
    # ------------------------------------------------------------------ #
    def gather(self, futures: Sequence[SortFuture]) -> BatchReport:
        """Wait for ``futures`` and fold them into a
        :class:`~repro.planner.batch.BatchReport` (reports in the given
        order, per-job failures captured).
        """
        t0 = time.perf_counter()
        report = BatchReport(executor=self.executor)
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
        report.wall_seconds = time.perf_counter() - t0
        return report

    # ------------------------------------------------------------------ #
    # the worker loop
    # ------------------------------------------------------------------ #
    def _next_job(self) -> tuple | None:
        """Block until a job is queued and pop the best one, or return
        ``None`` once the service is shut down with nothing left to drain."""
        with self._cond:
            while not self._queue:
                if self._shutdown:
                    return None
                self._cond.wait()
            item = heapq.heappop(self._queue)
            if self.max_queue is not None:
                # wake "block"-policy submitters waiting on a slot
                self._cond.notify_all()
            return item

    def _worker(self, index: int) -> None:
        """Body of worker thread ``index``: dispatch, cancel-skip, run,
        time, publish — one lifecycle for both executors."""
        run = (self._run_in_process if self.executor == "process"
               else self._run_in_thread)
        while (item := self._next_job()) is not None:
            _priority, _seq, fut, check_sorted = item
            if not fut.set_running_or_notify_cancel():
                with self._cond:
                    self.cancelled += 1
                continue
            records = len(fut.job.data) if fut.job.data is not None else 0
            t0 = time.perf_counter()
            result, error, cpu = run(index, fut, check_sorted)
            wall = time.perf_counter() - t0
            fut.wall_seconds = wall
            fut.cpu_seconds = wall if cpu is None else cpu
            # publish the counters first: a waiter or done-callback that reads
            # stats() the moment its future resolves must see its own job
            with self._cond:
                self.completed += 1
                self.busy_seconds += wall
                if error is None:
                    self.records_sorted += records
            if error is None:
                fut.set_result(result)
            else:
                fut.set_exception(error)
        handle = self._handles[index]
        if handle is not None:
            stop_persistent_worker(*handle)
            with self._cond:
                self._handles[index] = None

    def _run_in_thread(self, index: int, fut: SortFuture, check_sorted: bool):
        """Run one job on this worker thread, planning through the engine's
        cache.  Returns ``(result, error, cpu_seconds)``."""
        c0 = time.thread_time()  # this worker's CPU, contention-free
        result = error = None
        try:
            plan = faults.active()
            if plan is not None:
                # thread workers cannot die without taking the pool down,
                # so injected "worker death" fails the in-flight job
                plan.check("worker-death", f"thread worker {index}")
            result = execute_and_check(
                fut.ticket, fut.job, cache=self.engine.cache,
                constants=self.engine.constants, check_sorted=check_sorted,
            )
        except Exception as exc:  # noqa: BLE001 — captured per job by design
            error = exc
        return result, error, time.thread_time() - c0

    def _run_in_process(self, index: int, fut: SortFuture, check_sorted: bool):
        """Run one job as a lockstep pipe round-trip to worker ``index``'s
        process.  Returns ``(result, error, None)``: the CPU figure is the
        wall of the dedicated child."""
        handle = self._handles[index]
        if handle is None:  # respawn was refused (interpreter shutdown)
            error = WorkerDiedError(f"worker {index} was not respawned")
            return None, error, None
        proc, conn = handle
        if faults.fire("worker-death"):
            # injected worker death takes the REAL failure path: kill the
            # child, let the pipe EOF below raise, fail only this future,
            # respawn — exactly what an OOM kill looks like
            proc.kill()
        try:
            # ship the submitting process's block-kernel mode and the
            # engine's current constants with the job — neither crosses the
            # process boundary on its own
            conn.send((fut.ticket, fut.job, check_sorted, get_default_kernel(),
                       self.engine.constants))
            return (*conn.recv(), None)
        except (EOFError, OSError, BrokenPipeError) as exc:
            # the worker process died mid-job: fail ONLY this future,
            # respawn the worker, keep serving the queue
            self._respawn(index)
            error = WorkerDiedError(
                f"worker {index} died while running job "
                f"{fut.ticket} ({getattr(fut.job, 'label', '')!r}): {exc!r}"
            )
            return None, error, None

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
        handle = spawn_persistent_worker()
        with self._cond:
            self._handles[index] = handle
            self.respawns += 1

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def queued(self) -> int:
        """Jobs accepted but not yet dispatched."""
        with self._cond:
            return len(self._queue)

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
                "queued": len(self._queue),
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
            doomed = []
            if not drain and not already:
                doomed = [fut for _, _, fut, _ in self._queue]
                self._queue.clear()
            self._cond.notify_all()
        for fut in doomed:
            if fut.cancel():
                with self._cond:
                    self.cancelled += 1
        if wait:
            for t in self._threads:
                t.join(timeout)

    def __enter__(self) -> "SortService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)
