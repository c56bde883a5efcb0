"""Memoised sort planning.

A :class:`~repro.planner.cost_model.SortPlan` is a pure function of
``(n, M, B, omega, algorithms, k_max, constants)`` — nothing about the input
*data* enters the ranking.  Batch workloads repeat the same ``(n, machine)``
combinations constantly (the CLI driver draws job sizes from a small range,
production traffic clusters around popular request shapes), so re-ranking per
job is pure waste.  :class:`PlanCache` memoises the ranking behind a lock
(safe to share across the thread executor; each process worker builds its
own) and counts hits/misses so :meth:`~repro.planner.batch.BatchReport.summary`
can surface cache effectiveness per batch.

Entries are evicted LRU when ``maxsize`` is set; the default is unbounded,
which is fine for the plan table's size (a few hundred bytes per distinct
``(n, machine)`` shape).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

from ..analysis.locksan import wrap_lock
from ..models.params import MachineParams
from .cost_model import SortPlan, plan_sort

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (calibration → cost_model)
    from .calibration import CostConstants


class PlanCache:
    """Thread-safe LRU memo table for :func:`~repro.planner.cost_model.plan_sort`."""

    def __init__(self, maxsize: int | None = None):
        if maxsize is not None and maxsize < 1:
            raise ValueError(f"maxsize must be >= 1 or None, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._plans: OrderedDict[tuple, SortPlan] = OrderedDict()
        self._lock = wrap_lock(threading.Lock(), "PlanCache._lock")

    # ------------------------------------------------------------------ #
    @staticmethod
    def make_key(
        n: int,
        params: MachineParams,
        algorithms: tuple[str, ...] | None = None,
        k_max: int | None = None,
        constants: "CostConstants | None" = None,
    ) -> tuple:
        """The full set of inputs ``plan_sort`` is a pure function of."""
        return (
            n,
            params.M,
            params.B,
            params.omega,
            tuple(algorithms) if algorithms is not None else None,
            k_max,
            constants,
        )

    def plan(
        self,
        n: int,
        params: MachineParams,
        algorithms: tuple[str, ...] | None = None,
        k_max: int | None = None,
        constants: "CostConstants | None" = None,
    ) -> SortPlan:
        """The memoised :func:`plan_sort` — identical result, counted access."""
        return self.planned(n, params, algorithms, k_max, constants)[0]

    def planned(
        self,
        n: int,
        params: MachineParams,
        algorithms: tuple[str, ...] | None = None,
        k_max: int | None = None,
        constants: "CostConstants | None" = None,
    ) -> tuple[SortPlan, bool]:
        """:meth:`plan` plus whether this access was a cache hit.

        The per-worker accounting in :mod:`repro.service` attributes each
        access to the job that made it, which needs the hit/miss outcome of
        the individual call rather than the cache-wide totals.
        """
        key = self.make_key(n, params, algorithms, k_max, constants)
        # compute under the lock: planning is a few closed-form evaluations
        # (microseconds), far cheaper than the sorts it routes, and holding
        # the lock makes hit/miss accounting deterministic — concurrent first
        # accesses to one key count exactly one miss
        with self._lock:
            cached = self._plans.get(key)
            if cached is not None:
                self.hits += 1
                self._plans.move_to_end(key)
                return cached, True
            plan = plan_sort(n, params, algorithms=algorithms, k_max=k_max, constants=constants)
            self.misses += 1
            self._plans[key] = plan
            if self.maxsize is not None and len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)
        return plan, False

    # ------------------------------------------------------------------ #
    # cross-process warm start
    # ------------------------------------------------------------------ #
    def snapshot(self) -> list[tuple]:
        """The cache's ``(key, plan)`` entries in LRU order (coldest first).

        Plans are frozen dataclasses and keys are plain tuples, so a snapshot
        pickles cleanly across the process boundary — :func:`seed` on the far
        side rebuilds the hot state without re-ranking anything.
        """
        with self._lock:
            return list(self._plans.items())

    def seed(self, entries) -> int:
        """Install pre-computed ``(key, plan)`` entries (or copy another
        :class:`PlanCache`) without touching the hit/miss counters.

        Seeding is how process workers start warm: the parent snapshots its
        hot cache and each worker seeds a fresh one before its first job.
        Later entries win the LRU position; ``maxsize`` is respected.
        Returns the number of *new* keys installed.
        """
        if isinstance(entries, PlanCache):
            entries = entries.snapshot()
        installed = 0
        with self._lock:
            for key, plan in entries:
                if key not in self._plans:
                    installed += 1
                self._plans[key] = plan
                self._plans.move_to_end(key)
                if self.maxsize is not None and len(self._plans) > self.maxsize:
                    self._plans.popitem(last=False)
        return installed

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def stats(self) -> dict:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses, "size": len(self._plans)}

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self.hits = 0
            self.misses = 0
