"""The :class:`SortReport` every sort entry point returns: the output plus
its cost counters.

The entry point itself is a :class:`~repro.engine.SortEngine` instance —
``SortEngine(params).sort(...)`` / ``.batch(...)`` / ``.calibrate()`` /
``.stream()`` — which owns the machine, the shared plan cache and the
calibrated constants once.  The machine-free §3 element-granularity model is
:func:`repro.engine.ram_sort_report`.  For asynchronous submission (futures,
priorities, the persistent job server), see :mod:`repro.service`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .models.counters import CostCounter
from .models.params import MachineParams


@dataclass
class SortReport:
    """Outcome of one instrumented sort."""

    algorithm: str
    n: int
    params: MachineParams | None
    output: list
    counter: CostCounter
    #: primary-memory high-water mark in records (external sorts only)
    memory_high_water: int = 0
    extras: dict = field(default_factory=dict)
    #: canonical algorithm family — one of the planner's buckets
    #: (``"mergesort"``, ``"samplesort"``, ``"heapsort"``, ``"selection"``,
    #: ``"ram"``, ``"stream"``) regardless of the k-annotated display label,
    #: so batch aggregation groups by *algorithm*, not by ``(algorithm, k)``.
    #: Falls back to the display label when not set explicitly.
    family: str = ""
    #: which counter granularity this report's model charges: ``"block"``
    #: (AEM/external sorts) or ``"element"`` (RAM sorts).  Explicit so that a
    #: legitimate zero (e.g. an external sort of an empty input performs zero
    #: block reads) is reported as 0 rather than silently falling back to the
    #: other granularity's tally.
    granularity: str = "block"

    def __post_init__(self) -> None:
        if not self.family:
            self.family = self.algorithm

    @property
    def reads(self) -> int:
        """Block reads (external models) or element reads (RAM model)."""
        if self.granularity == "element":
            return self.counter.element_reads
        return self.counter.block_reads

    @property
    def writes(self) -> int:
        """Block writes (external models) or element writes (RAM model)."""
        if self.granularity == "element":
            return self.counter.element_writes
        return self.counter.block_writes

    def cost(self, omega: int | None = None) -> float:
        """Asymmetric I/O cost ``reads + omega * writes`` at this report's
        granularity (consistent with :attr:`reads` / :attr:`writes`, including
        the zero-transfer case)."""
        if omega is None:
            if self.params is None:
                raise ValueError("omega required when no machine params are attached")
            omega = self.params.omega
        return self.reads + omega * self.writes

    def is_sorted(self) -> bool:
        return all(
            self.output[i] <= self.output[i + 1] for i in range(len(self.output) - 1)
        )
