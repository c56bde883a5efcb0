"""Shared helpers for the benchmark harness.

Every benchmark regenerates one paper claim's table (see DESIGN.md §3) via
the corresponding :mod:`repro.experiments` runner, asserts the claim's
success criterion, and records headline numbers in ``extra_info`` so the
pytest-benchmark report doubles as the reproduction record.

Run with::

    pytest benchmarks/ --benchmark-only

Simulations are deterministic, so a single round measures the (stable)
simulation wall time; the *scientific* output is the asserted table shape,
not the seconds.

Machine-readable trajectory
---------------------------
Every bench additionally lands a ``BENCH_<name>.json`` record (wall-clock +
``extra_info``, which carries I/O counters where the bench collects them) in
``benchmarks/results/`` — override with ``BENCH_RESULTS_DIR``.  The committed
records seed the performance trajectory; re-running refreshes them in place.
"""

from __future__ import annotations

import json
import os
import platform
import time

import pytest

RESULTS_DIR = os.environ.get(
    "BENCH_RESULTS_DIR", os.path.join(os.path.dirname(__file__), "results")
)

#: checked-in contract for the record shape — tests validate the committed
#: records against it, and emit_bench_json validates at write time so a
#: malformed record fails the emitting bench, not a later consumer
BENCH_RECORD_SCHEMA_PATH = os.path.join(
    os.path.dirname(__file__), "bench_record.schema.json"
)


def load_bench_record_schema() -> dict:
    with open(BENCH_RECORD_SCHEMA_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def emit_bench_json(name: str, payload: dict) -> str:
    """Write one machine-readable ``BENCH_<name>.json`` record; return path.

    Every record carries the ``host`` fingerprint (Python version and
    logical CPU count) its timings were taken on.  The record is validated
    against ``bench_record.schema.json`` first — a bench emitting a
    malformed record fails here, at the source.
    """
    from repro.analysis.schema import validate

    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"BENCH_{name}.json")
    host = {"python": platform.python_version(), "nproc": os.cpu_count() or 1}
    record = {"bench": name, "generated_utc": _utcnow(), "host": host, **payload}
    validate(record, load_bench_record_schema())
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_bench_json(name: str) -> dict | None:
    """Load a committed ``BENCH_<name>.json`` record (None when absent)."""
    path = os.path.join(RESULTS_DIR, f"BENCH_{name}.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def _utcnow() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def run_once(benchmark, fn, *args, **kwargs):
    """Execute ``fn`` exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture(autouse=True)
def _bench_trajectory(request):
    """After each bench, emit its BENCH_*.json trajectory record."""
    yield
    benchmark = request.node.funcargs.get("benchmark")
    if benchmark is None:
        return
    stats = getattr(benchmark, "stats", None)
    if not stats:  # bench body never invoked the timer
        return
    try:
        wall = stats.stats.mean
        median = stats.stats.median
        iqr = stats.stats.iqr
        repeats = stats.stats.rounds
    except AttributeError:  # pragma: no cover - pytest-benchmark internals
        return
    emit_bench_json(
        request.node.name,
        {
            "wall_seconds": round(wall, 6),
            "median_seconds": round(median, 6),
            "iqr_seconds": round(iqr, 6),
            "repeats": repeats,
            "extra_info": dict(benchmark.extra_info),
        },
    )
