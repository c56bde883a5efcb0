"""Timing primitives: the ``sorted`` floor, percentiles, spans and op logs."""

from __future__ import annotations

import collections
import contextlib
import itertools
import math
import random
import statistics
import time
from dataclasses import dataclass, field

#: the floor's reference list: fixed, owned by the benchmark, seed-independent
REF_N = 20_000
_REF = random.Random("perfbench-floor").sample(range(1 << 40), REF_N)
#: short timings per floor window
FLOOR_K = 7
#: seconds of idle before a floor window, so servers finish their cleanup
FLOOR_SETTLE = 0.05

#: standard percentiles, highest first, for the latency tail
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: samples that must lie beyond a percentile for it to count as the tail
TAIL_BEYOND = 10


def floor_timings(k: int = FLOOR_K) -> list[float]:
    """``k`` back-to-back timings of ``sorted`` on the reference list."""
    out = []
    for _ in range(k):
        t0 = time.perf_counter()
        sorted(_REF)
        out.append(time.perf_counter() - t0)
    return out


class Floor:
    """Short ``sorted`` timings taken in windows while nothing is in flight.

    Callers invoke :meth:`window` only between closed-loop rounds, when no
    request is outstanding, after a short settle.  ``seconds`` is the
    median of every timing of every window: on a shared 2-core host it
    tracks slow drift in machine speed better than a minimum does, and a
    minority of disturbed timings cannot move it.  ``pre`` is the same
    statistic for the window taken before any set-up, so ``drift`` exposes
    background work left running during the run's windows.
    """

    def __init__(self):
        self.pre = statistics.median(floor_timings())
        self.timings: list[float] = []
        self.windows = 0

    def window(self) -> None:
        time.sleep(FLOOR_SETTLE)
        self.timings += floor_timings()
        self.windows += 1

    @property
    def seconds(self) -> float:
        return statistics.median(self.timings) if self.timings else self.pre

    @property
    def per_record(self) -> float:
        return self.seconds / REF_N

    @property
    def drift(self) -> float:
        return self.seconds / self.pre


def nearest_rank(sorted_values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank ``p``-th percentile and the count of samples beyond it."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def tail(values: list[float]) -> tuple[float, float, int]:
    """``(percentile, value, beyond)`` for the highest ladder percentile with
    at least ``TAIL_BEYOND`` samples beyond it; with too few samples for any,
    the median (p50) stands in and ``beyond`` shows how short it fell."""
    ordered = sorted(values)
    for p in TAIL_LADDER:
        value, beyond = nearest_rank(ordered, p)
        if beyond >= TAIL_BEYOND:
            return p, value, beyond
    value, beyond = nearest_rank(ordered, 50.0)
    return 50.0, value, beyond


def error_name(exc: BaseException) -> str:
    """``Exc``, or ``Exc.<remote Exc>`` for a failure reported over the wire."""
    reply = getattr(exc, "reply", None)
    kind = reply.get("kind") if isinstance(reply, dict) else None
    return f"{type(exc).__name__}.{kind}" if kind else type(exc).__name__


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# ---------------------------------------------------------------------- #
# spans
# ---------------------------------------------------------------------- #
@dataclass
class Span:
    trace: int
    span: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans recorded from the benchmark around each layer call.

    Spans nest through a stack (the benchmark's closed loops call each
    layer from one thread per client; each client gets its own tracer).
    """

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._ids = itertools.count()
        self._traces = itertools.count()

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        trace = parent.trace if parent else next(self._traces)
        rec = Span(trace, next(self._ids), parent.span if parent else None,
                   name, time.perf_counter())
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(rec)

    def self_seconds(self) -> dict[str, float]:
        """Per-name self time: span duration minus its direct children's."""
        child = collections.defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.seconds
        out: dict[str, float] = collections.defaultdict(float)
        for s in self.spans:
            out[s.name] += s.seconds - child[s.span]
        return dict(out)


class NullTracer:
    """Tracing off: the same interface, nothing recorded."""

    enabled = False
    spans = ()

    def span(self, name: str):
        return contextlib.nullcontext()


# ---------------------------------------------------------------------- #
# per-op outcomes
# ---------------------------------------------------------------------- #
@dataclass
class Op:
    """Outcome of one closed-loop operation."""

    records: int
    latency: float = 0.0
    ok: bool = False
    error: str | None = None
    reads: int | None = None
    writes: int | None = None
    #: exact per-op facts that must repeat run to run (shard sizes, ...)
    exact: tuple = ()


@dataclass
class RunLog:
    """Every op of one measured run plus its floor and active wall time."""

    floor: Floor
    ops: list[Op] = field(default_factory=list)
    active_seconds: float = 0.0

    def failed_by_type(self) -> dict[str, int]:
        return dict(sorted(collections.Counter(o.error for o in self.ops if not o.ok).items()))

    @property
    def wrong_outputs(self) -> int:
        return sum(1 for o in self.ops if o.error == "WrongOutput")
