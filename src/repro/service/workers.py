"""Persistent worker processes for the :class:`~repro.service.SortService`
process pool.

:func:`spawn_persistent_worker` forks a long-lived worker process speaking a
simple request/response protocol over a pipe (one in-flight job per worker),
and :func:`persistent_worker_loop` is its body: a job loop fed one message at
a time.  Each worker owns a worker-local
:class:`~repro.planner.plan_cache.PlanCache` (seedable from a parent
snapshot) that stays warm across jobs.  A worker that dies mid-job surfaces
to the parent as a broken pipe; the service fails that job with
:class:`WorkerDiedError` and respawns the worker.

Everything crossing the process boundary (jobs in, reports out) must pickle.
:class:`~repro.planner.batch.SortJob` is plain data by design; captured
exceptions are re-pickled defensively (an exception type with a non-trivial
constructor is replaced by a ``RuntimeError`` carrying its repr, rather than
poisoning the reply).
"""

from __future__ import annotations

import multiprocessing
import pickle

from ..core.kernels import get_default_kernel, set_default_kernel
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


def persistent_worker_loop(conn, constants=None, warm_entries=None,
                           kernel=None) -> None:
    """Body of one long-lived worker process.

    Protocol (lockstep request/response over ``conn``):

    * ``("job", index, job, check_sorted[, kernel])`` → ``("ok", report,
      dh, dm)`` or ``("err", picklable_exception, dh, dm)`` where ``dh``/
      ``dm`` are this job's plan-cache hit/miss deltas and the optional
      ``kernel`` pins the block-kernel mode for this job (the parent's
      default at submission time — module globals do not cross processes);
    * ``("seed", entries)`` → ``("seeded", installed, 0, 0)`` — install a
      parent :meth:`PlanCache.snapshot` into the worker-local cache;
    * ``("stop",)`` or ``None`` → exit.

    The worker-local cache persists across jobs — that is the point of a
    persistent pool: repeated job shapes stop paying the ranking after the
    first submission, without any cross-process shared state.
    """
    if kernel is not None:
        set_default_kernel(kernel)
    cache = PlanCache()
    if warm_entries:
        cache.seed(warm_entries)
    while True:
        msg = conn.recv()
        if msg is None or msg[0] == "stop":
            break
        if msg[0] == "seed":
            conn.send(("seeded", cache.seed(msg[1]), 0, 0))
            continue
        if len(msg) == 5:
            _kind, index, job, check_sorted, job_kernel = msg
            if job_kernel is not None:
                set_default_kernel(job_kernel)
        else:
            _kind, index, job, check_sorted = msg
        hits0, misses0 = cache.hits, cache.misses
        try:
            rep = execute_and_check(
                index, job, cache=cache, constants=constants, check_sorted=check_sorted
            )
            reply = ("ok", rep, cache.hits - hits0, cache.misses - misses0)
        except Exception as exc:  # noqa: BLE001 — captured per job by design
            reply = (
                "err",
                _picklable_error(exc),
                cache.hits - hits0,
                cache.misses - misses0,
            )
        conn.send(reply)
    conn.close()


def spawn_persistent_worker(constants=None, warm_entries=None):
    """Fork one persistent worker; returns ``(process, parent_conn)``.

    The process is a daemon (it must never outlive the service that owns
    it); exactly one job is in flight per worker, so the pipe needs no
    framing beyond the lockstep protocol.
    """
    parent_conn, child_conn = multiprocessing.Pipe()
    proc = multiprocessing.Process(
        target=persistent_worker_loop,
        args=(child_conn, constants, warm_entries, get_default_kernel()),
        daemon=True,
    )
    proc.start()
    child_conn.close()
    return proc, parent_conn


def stop_persistent_worker(proc, conn, timeout: float = 5.0) -> None:
    """Best-effort orderly stop: send the stop message, join, then escalate
    to terminate if the worker does not exit (e.g. wedged mid-job)."""
    try:
        conn.send(("stop",))
    except (OSError, BrokenPipeError):
        pass  # already dead — nothing to stop
    proc.join(timeout)
    if proc.is_alive():
        proc.terminate()
        proc.join(timeout)
    conn.close()
