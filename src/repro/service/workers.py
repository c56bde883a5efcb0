"""Persistent worker processes for the :class:`~repro.service.SortService`
process pool.

:func:`spawn_persistent_worker` forks a long-lived worker process speaking a
lockstep request/response protocol over a pipe (one in-flight job per
worker), and :func:`persistent_worker_loop` is its body.  Every request has
one shape — a job plus the block-kernel mode and the cost constants to run
it under, both read in the parent at dispatch — and ``None`` stops the
worker.  Each worker plans through its own in-process
:class:`~repro.planner.plan_cache.PlanCache` memo.  A worker that dies
mid-job surfaces to the parent as a broken pipe; the service fails that job
with :class:`WorkerDiedError` and respawns the worker.

Everything crossing the process boundary (jobs in, reports out) must pickle.
:class:`~repro.planner.batch.SortJob` is plain data by design; captured
exceptions are re-pickled defensively (an exception type with a non-trivial
constructor is replaced by a ``RuntimeError`` carrying its repr, rather than
poisoning the reply).
"""

from __future__ import annotations

import multiprocessing
import pickle

from ..core.kernels import set_default_kernel
from ..planner.batch import execute_and_check
from ..planner.plan_cache import PlanCache


class WorkerDiedError(RuntimeError):
    """A persistent pool worker process died while a job was in flight.

    Only the in-flight job fails with this; the pool respawns the worker and
    subsequent submissions run normally.
    """


def _picklable_error(exc: Exception) -> Exception:
    """``exc`` if it survives a pickle round-trip, else a stand-in that does."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 — any pickling failure gets the stand-in
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def persistent_worker_loop(conn) -> None:
    """Body of one long-lived worker process.

    Protocol (lockstep request/response over ``conn``):

    * ``(index, job, check_sorted, kernel, constants)`` → ``(report, None)``
      or ``(None, picklable_exception)``.  ``kernel`` is the block-kernel
      mode of the submitting process (module globals do not cross
      processes) and ``constants`` the engine's
      :class:`~repro.planner.calibration.CostConstants` at dispatch, so a
      set adopted after the pool started reaches the next job;
    * ``None`` → exit.
    """
    cache = PlanCache()
    while (msg := conn.recv()) is not None:
        index, job, check_sorted, kernel, constants = msg
        set_default_kernel(kernel)
        rep = err = None
        try:
            rep = execute_and_check(
                index, job, cache=cache, constants=constants, check_sorted=check_sorted
            )
        except Exception as exc:  # noqa: BLE001 — captured per job by design
            err = _picklable_error(exc)
        conn.send((rep, err))
    conn.close()


def spawn_persistent_worker():
    """Fork one persistent worker; returns ``(process, parent_conn)``.

    The process is a daemon (it must never outlive the service that owns
    it); exactly one job is in flight per worker, so the pipe needs no
    framing beyond the lockstep protocol.
    """
    parent_conn, child_conn = multiprocessing.Pipe()
    proc = multiprocessing.Process(
        target=persistent_worker_loop, args=(child_conn,), daemon=True
    )
    proc.start()
    child_conn.close()
    return proc, parent_conn


def stop_persistent_worker(proc, conn, timeout: float = 5.0) -> None:
    """Best-effort orderly stop: send the stop message, join, then escalate
    to terminate if the worker does not exit (e.g. wedged mid-job)."""
    try:
        conn.send(None)
    except (OSError, BrokenPipeError):
        pass  # already dead — nothing to stop
    proc.join(timeout)
    if proc.is_alive():
        proc.terminate()
        proc.join(timeout)
    conn.close()
