"""Asynchronous sort-job service: submit/futures, priority dispatch, serving.

The execution surface up through the :class:`~repro.engine.SortEngine`
redesign was synchronous — every entry point blocked its caller until the
sort finished.  This subsystem adds the submission-oriented surface a
persistent, heavily-trafficked deployment needs:

* :mod:`~repro.service.futures` — :class:`SortFuture` result handles with
  result / exception / cancel / done-callback semantics;
* :mod:`~repro.service.scheduler` — :class:`SortService`, the
  priority-queue dispatcher over a **persistent** worker pool (thread or
  long-lived worker processes that survive across submissions, with
  worker-death isolation and respawn);
* :mod:`~repro.service.server` — ``python -m repro serve``: the
  newline-delimited-JSON line protocol over a local socket, plus
  :class:`ServiceClient` for Python callers;
* :mod:`~repro.service.workers` — the persistent worker processes behind
  ``executor="process"`` and :class:`WorkerDiedError`.

``engine.batch()`` is a thin client of this layer (``submit_many`` +
``gather``), parity-tested against a sequential loop of per-job
``engine.sort`` calls.
"""

from .backoff import Deadline, backoff_delay, backoff_delays
from .futures import CANCELLED, FINISHED, PENDING, RUNNING, SortFuture, wait
from .scheduler import (
    ADMISSION_POLICIES,
    PRIORITY_CONTROL,
    QueueFullError,
    SortService,
    default_pool_width,
)
from .server import EngineServer, ServiceClient, ServiceError
from .workers import WorkerDiedError

__all__ = [
    "ADMISSION_POLICIES",
    "CANCELLED",
    "Deadline",
    "EngineServer",
    "FINISHED",
    "PENDING",
    "PRIORITY_CONTROL",
    "QueueFullError",
    "RUNNING",
    "ServiceClient",
    "ServiceError",
    "SortFuture",
    "SortService",
    "WorkerDiedError",
    "backoff_delay",
    "backoff_delays",
    "default_pool_width",
    "wait",
]
