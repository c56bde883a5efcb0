"""Tests for the memoised plan cache."""

import threading

import pytest

from repro import MachineParams, PlanCache, plan_sort
from repro.planner.calibration import CostConstants

SMALL = MachineParams(M=64, B=8, omega=8)
MEDIUM = MachineParams(M=256, B=16, omega=8)


class TestPlanCache:
    def test_hit_returns_identical_ranking(self):
        cache = PlanCache()
        first = cache.plan(5_000, SMALL)
        second = cache.plan(5_000, SMALL)
        assert second is first  # the memoised object, not a recomputation
        fresh = plan_sort(5_000, SMALL)
        assert [c.as_dict() for c in second.ranked] == [c.as_dict() for c in fresh.ranked]
        assert cache.stats() == {"hits": 1, "misses": 1, "size": 1}

    def test_distinct_keys_miss(self):
        cache = PlanCache()
        cache.plan(5_000, SMALL)
        cache.plan(5_001, SMALL)                      # different n
        cache.plan(5_000, SMALL.with_omega(16))       # different omega
        cache.plan(5_000, MEDIUM)                     # different (M, B)
        cache.plan(5_000, SMALL, algorithms=("mergesort",))  # restricted field
        cache.plan(5_000, SMALL, k_max=3)             # different k budget
        assert cache.hits == 0 and cache.misses == 6
        assert len(cache) == 6

    def test_constants_participate_in_key(self):
        cache = PlanCache()
        unit = cache.plan(5_000, SMALL)
        heavy = CostConstants.from_mapping({"samplesort": (10.0, 10.0)})
        scaled = cache.plan(5_000, SMALL, constants=heavy)
        assert cache.misses == 2 and cache.hits == 0
        assert scaled.chosen.algorithm != "samplesort"
        assert cache.plan(5_000, SMALL, constants=heavy) is scaled
        assert cache.plan(5_000, SMALL) is unit
        assert cache.hits == 2

    def test_planning_errors_propagate_uncached(self):
        cache = PlanCache()
        with pytest.raises(ValueError):
            cache.plan(-1, SMALL)
        assert len(cache) == 0

    def test_clear(self):
        cache = PlanCache()
        cache.plan(1_000, SMALL)
        cache.plan(1_000, SMALL)
        cache.clear()
        assert cache.stats() == {"hits": 0, "misses": 0, "size": 0}

    def test_thread_safety_smoke(self):
        cache = PlanCache()
        plans = [None] * 16

        def worker(i):
            plans[i] = cache.plan(7_000, SMALL)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(p is not None for p in plans)
        reference = [c.as_dict() for c in plans[0].ranked]
        assert all([c.as_dict() for c in p.ranked] == reference for p in plans)
        assert cache.hits + cache.misses == 16
        assert len(cache) == 1

