"""SortService concurrency stress: cancel racing dispatch, drain racing
submit — run with the locksan lock-order recorder enabled, asserting no
inversions after the dust settles."""

from __future__ import annotations

import random
import threading
from concurrent.futures import CancelledError

import pytest

from repro.analysis import locksan
from repro.engine import SortEngine
from repro.models import MachineParams
from repro.service import SortService


@pytest.fixture
def locksan_on():
    was = locksan.locksan_enabled()
    locksan.enable()
    locksan.reset()
    yield
    violations = locksan.violations()
    locksan.reset()
    if not was:
        locksan.disable()
    assert violations == [], violations


def _datasets(count: int, n: int, seed: int = 0) -> list[list[int]]:
    rng = random.Random(seed)
    return [rng.sample(range(4 * n), n) for _ in range(count)]


@pytest.fixture
def engine():
    return SortEngine(MachineParams(M=64, B=8, omega=4))


class TestCancelRacingDispatch:
    def test_cancel_storm_against_live_workers(self, locksan_on, engine):
        """Many threads cancelling while workers are actively dispatching:
        every future ends terminal, cancelled ones raise CancelledError,
        non-cancelled ones return sorted output, and the service counters
        stay consistent."""
        service = SortService(engine, workers=4, executor="thread")
        futures = service.submit_many(_datasets(60, 80), priority=1)
        stop = threading.Event()

        def cancel_worker(offset: int):
            for fut in futures[offset::3]:
                fut.cancel()
                if stop.is_set():  # pragma: no cover - timing guard
                    return

        cancellers = [
            threading.Thread(target=cancel_worker, args=(i,)) for i in range(3)
        ]
        for t in cancellers:
            t.start()
        for t in cancellers:
            t.join()
        stop.set()

        done = 0
        for fut, data in zip(futures, _datasets(60, 80)):
            if fut.cancelled():
                with pytest.raises(CancelledError):
                    fut.result(timeout=30)
            else:
                assert fut.result(timeout=30).output == sorted(data)
                done += 1
        service.shutdown()
        stats = service.stats()
        assert stats["submitted"] == 60
        assert stats["completed"] == done
        assert stats["completed"] + stats["cancelled"] == 60

    def test_racing_cancel_is_consistent(self, locksan_on, engine):
        """Two threads racing to cancel the same future: the outcomes must
        agree with the final state (stdlib semantics — cancel() on an
        already-cancelled future also reports True)."""
        service = SortService(engine, workers=2, executor="thread")
        for _ in range(20):
            fut = service.submit(_datasets(1, 60)[0])
            wins: list[bool] = []
            ts = [
                threading.Thread(target=lambda: wins.append(fut.cancel()))
                for _ in range(2)
            ]
            for t in ts:
                t.start()
            for t in ts:
                t.join()
            if fut.cancelled():
                # at least the winner saw True; a second True is the
                # already-cancelled echo, never a double transition
                assert wins.count(True) >= 1
            else:
                # dispatch won: nobody may claim the cancellation
                assert wins.count(True) == 0
                fut.result(timeout=30)
        service.shutdown()
        assert service.stats()["completed"] + service.stats()["cancelled"] == 20


class TestShutdownRacingSubmit:
    def test_drain_under_concurrent_submit(self, locksan_on, engine):
        """shutdown(drain=True) while submitter threads are still pushing:
        every future that was accepted must complete with a correct result;
        late submissions must raise cleanly."""
        service = SortService(engine, workers=4, executor="thread")
        accepted: list = []
        accepted_lock = threading.Lock()
        rejected = threading.Event()
        start = threading.Barrier(5)

        def submitter(seed: int):
            start.wait()
            for data in _datasets(15, 60, seed=seed):
                try:
                    fut = service.submit(data, priority=seed)
                except RuntimeError:
                    rejected.set()
                    return
                with accepted_lock:
                    accepted.append((fut, data))

        threads = [threading.Thread(target=submitter, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        start.wait()
        service.shutdown(drain=True)
        for t in threads:
            t.join()

        for fut, data in accepted:
            assert fut.result(timeout=30).output == sorted(data)
        stats = service.stats()
        assert stats["completed"] == len(accepted)
        # drain mode cancels nothing
        assert stats["cancelled"] == 0
        # a submit after shutdown must be refused loudly
        with pytest.raises(RuntimeError):
            service.submit([3, 1, 2])

    def test_no_drain_cancels_only_undispatched(self, locksan_on, engine):
        service = SortService(engine, workers=2, executor="thread")
        futures = service.submit_many(_datasets(30, 80), priority=1)
        service.shutdown(drain=False)
        outcomes = {"done": 0, "cancelled": 0}
        for fut, data in zip(futures, _datasets(30, 80)):
            if fut.cancelled():
                outcomes["cancelled"] += 1
            else:
                assert fut.result(timeout=30).output == sorted(data)
                outcomes["done"] += 1
        assert outcomes["done"] + outcomes["cancelled"] == 30
        stats = service.stats()
        assert stats["cancelled"] == outcomes["cancelled"]

    def test_repeated_shutdown_is_idempotent_under_race(self, locksan_on, engine):
        service = SortService(engine, workers=2, executor="thread")
        futures = service.submit_many(_datasets(10, 60))
        closers = [
            threading.Thread(target=service.shutdown, kwargs={"drain": True})
            for _ in range(3)
        ]
        for t in closers:
            t.start()
        for t in closers:
            t.join()
        for fut, data in zip(futures, _datasets(10, 60)):
            assert fut.result(timeout=30).output == sorted(data)
