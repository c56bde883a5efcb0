"""Futures for asynchronous sort jobs.

A :class:`SortFuture` is the handle :meth:`repro.service.SortService.submit`
returns: the submitting thread keeps going while the service's worker pool
sorts in the background, and the future delivers the
:class:`~repro.api.SortReport` (or the failure) whenever the caller is ready
for it.

It *is* a :class:`concurrent.futures.Future` — ``result`` / ``exception`` /
``cancel`` / ``add_done_callback`` and :func:`concurrent.futures.wait` all
work unchanged — plus the job metadata the service attaches (``ticket``,
``priority``, the normalized :class:`~repro.planner.batch.SortJob`) and the
per-job timing figures the worker stamps before completion.

States and transitions::

    PENDING ──cancel()──▶ CANCELLED
       │
       └─worker picks it up─▶ RUNNING ──▶ FINISHED (result or exception)

``cancel()`` only succeeds while the job is still queued (PENDING); once a
worker has started it there is nothing safe to interrupt.
"""

from __future__ import annotations

from concurrent import futures

PENDING = "PENDING"
RUNNING = "RUNNING"
CANCELLED = "CANCELLED"
FINISHED = "FINISHED"


class SortFuture(futures.Future):
    """The result handle for one submitted sort job.

    Attributes
    ----------
    ticket:
        Service-wide monotonically increasing submission id (also the id the
        line-protocol server hands to remote clients).
    job:
        The normalized :class:`~repro.planner.batch.SortJob` this future
        tracks.
    priority:
        Dispatch priority (lower runs first; FIFO within a priority).
    """

    def __init__(self, ticket: int, job=None, priority: float = 0):
        super().__init__()
        self.ticket = ticket
        self.job = job
        self.priority = priority
        #: worker-measured wall-clock of this job's execution, stamped just
        #: before completion — ``None`` until then (and for cancelled jobs)
        self.wall_seconds: float | None = None
        #: worker-measured CPU time of this job's execution (thread CPU for
        #: thread workers, wall of the dedicated child for process workers).
        #: Unlike ``wall_seconds`` this is not inflated when several workers
        #: timeshare a core, so it is the honest per-job compute figure.
        self.cpu_seconds: float | None = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = getattr(self.job, "label", "") or ""
        return (
            f"SortFuture(ticket={self.ticket}, state={self.state}"
            + (f", label={label!r}" if label else "")
            + ")"
        )

    @property
    def state(self) -> str:
        """One of ``PENDING`` / ``RUNNING`` / ``CANCELLED`` / ``FINISHED``."""
        # running() before done(): states only move forward, so a False
        # running() followed by a False done() means PENDING at the first read
        if self.running():
            return RUNNING
        if not self.done():
            return PENDING
        return CANCELLED if self.cancelled() else FINISHED

    def result(self, timeout: float | None = None):
        """Block until done; return the :class:`~repro.api.SortReport`.

        Raises the job's exception if it failed,
        :class:`concurrent.futures.CancelledError` if it was cancelled, and
        the builtin :class:`TimeoutError` if ``timeout`` elapses first.
        """
        return self._timed(super().result, timeout)

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """Block until done; return the job's exception (``None`` on
        success).  Cancellation raises, timeouts raise ``TimeoutError``."""
        return self._timed(super().exception, timeout)

    def _timed(self, wait, timeout):
        # before 3.11 concurrent.futures.TimeoutError is not the builtin,
        # and callers (the server's result op) catch the builtin one
        try:
            return wait(timeout)
        except futures.TimeoutError:
            if self.done():  # the job itself failed with a timeout
                raise
            raise TimeoutError(f"job {self.ticket} not done after {timeout}s") from None
