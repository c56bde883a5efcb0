"""Memoised sort planning.

A :class:`~repro.planner.cost_model.SortPlan` is a pure function of
``(n, M, B, omega, algorithms, k_max, constants)`` — nothing about the input
*data* enters the ranking.  Planning itself costs tens of microseconds, so
:class:`PlanCache` is a plain in-process memo behind
:meth:`repro.engine.SortEngine.plan`: one lock (safe to share across the
thread executor; each process worker holds its own), unbounded (a few hundred
bytes per distinct ``(n, machine)`` shape) and counted, so ``stats()`` shows
how often a ranking was reused.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from ..analysis.locksan import wrap_lock
from ..models.params import MachineParams
from .cost_model import SortPlan, plan_sort

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (calibration → cost_model)
    from .calibration import CostConstants


class PlanCache:
    """Thread-safe memo table for :func:`~repro.planner.cost_model.plan_sort`."""

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self._plans: dict[tuple, SortPlan] = {}
        self._lock = wrap_lock(threading.Lock(), "PlanCache._lock")

    def plan(
        self,
        n: int,
        params: MachineParams,
        algorithms: tuple[str, ...] | None = None,
        k_max: int | None = None,
        constants: "CostConstants | None" = None,
    ) -> SortPlan:
        """The memoised :func:`plan_sort` — identical result, counted access."""
        # the full set of inputs plan_sort is a pure function of
        key = (
            n,
            params.M,
            params.B,
            params.omega,
            tuple(algorithms) if algorithms is not None else None,
            k_max,
            constants,
        )
        # compute under the lock: planning is far cheaper than the sorts it
        # routes, and holding the lock makes hit/miss accounting
        # deterministic — concurrent first accesses to one key count exactly
        # one miss
        with self._lock:
            cached = self._plans.get(key)
            if cached is not None:
                self.hits += 1
                return cached
            plan = plan_sort(n, params, algorithms=algorithms, k_max=k_max, constants=constants)
            self.misses += 1
            self._plans[key] = plan
        return plan

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
