"""Measure the block-kernel layer: vectorized vs ``slow_reference`` kernels.

The E6 comparison (the three §4 AEM sorts, plus the Lemma 4.2 selection
sort at its base-case size) run under both kernel modes on the same input,
asserting that the modes are **I/O-invisible** (identical
``reads``/``writes``/``cost`` counters) and measuring the wall-clock
speedup the vectorized layer buys.

Usable two ways:

* imported by ``bench_e20_block_kernels.py`` (CI perf smoke: small ``n``,
  counter-parity assertion, regression gate against the committed baseline
  record);
* run as a script to (re)generate the committed full-size record::

      PYTHONPATH=src python benchmarks/kernel_speedup.py

  which writes ``results/BENCH_e06_three_sorts_n100k.json`` — the n=100k
  measurement behind the "≥3x wall-clock" claim in the README.
"""

from __future__ import annotations

import time

from repro import MachineParams, AEMachine
from repro.core.aem_heapsort import aem_heapsort
from repro.core.aem_mergesort import aem_mergesort
from repro.core.aem_samplesort import aem_samplesort
from repro.core.selection_sort import selection_sort
from repro.workloads import random_permutation

ALGOS = {
    "mergesort": lambda m, a, k, kernel: aem_mergesort(m, a, k=k, kernel=kernel),
    "samplesort": lambda m, a, k, kernel: aem_samplesort(
        m, a, k=k, seed=23, kernel=kernel
    ),
    "heapsort": lambda m, a, k, kernel: aem_heapsort(m, a, k=k, kernel=kernel),
}



def _selection(machine, arr, k, kernel):
    return selection_sort(machine, arr, kernel=kernel)


#: the E6 toy machine (same regime the experiment tables use)
TOY = MachineParams(M=64, B=8, omega=8)
#: a scaled machine (B large enough that blocks amortize per-block work);
#: the headline n=100k speedup is measured here
SCALED = MachineParams(M=2048, B=32, omega=8)


def _compare(name: str, fn, data: list, params: MachineParams, k: int,
             repeats: int) -> dict:
    """Time one sort under both kernels on ``data``; return its row.

    Keeps the per-kernel minimum over ``repeats`` (simulations are
    deterministic, so the minimum is the least-noisy estimate) and asserts
    the output sorted and the counters identical on every run.
    """
    expected = sorted(data)
    walls = {"vectorized": [], "slow_reference": []}
    counters = {}
    for _ in range(repeats):
        for kernel in ("vectorized", "slow_reference"):
            machine = AEMachine(params)
            arr = machine.from_list(data)
            t0 = time.perf_counter()
            out = fn(machine, arr, k, kernel)
            walls[kernel].append(time.perf_counter() - t0)
            assert out.peek_list() == expected, f"{name}/{kernel} mis-sorted"
            snap = machine.counter.as_dict()
            if kernel in counters:
                assert counters[kernel] == snap, f"{name}/{kernel} nondeterministic"
            counters[kernel] = snap
    assert counters["vectorized"] == counters["slow_reference"], (
        f"{name}: vectorized kernel changed the I/O accounting: "
        f"{counters['vectorized']} != {counters['slow_reference']}"
    )
    vec = min(walls["vectorized"])
    slow = min(walls["slow_reference"])
    counter = counters["vectorized"]
    return {
        "algorithm": name,
        "k": k,
        "n": len(data),
        "vectorized_seconds": round(vec, 6),
        "slow_reference_seconds": round(slow, 6),
        "speedup": round(slow / vec, 3) if vec else None,
        "block_reads": counter["block_reads"],
        "block_writes": counter["block_writes"],
        "cost": counter["block_reads"] + params.omega * counter["block_writes"],
    }


def measure(n: int, params: MachineParams, k: int = 4, repeats: int = 1) -> dict:
    """Run the three sorts under both kernels; return the comparison record.

    The totals cover the three sorts on ``n`` records.  The Lemma 4.2
    selection sort, which every sort runs on its n <= kM leaves, is timed
    beside them on the first ``kM`` records (it makes ``n/M`` passes, so
    the full input would only measure a size no sort hands it).
    """
    data = random_permutation(n, seed=29)
    rows = [_compare(name, fn, data, params, k, repeats) for name, fn in ALGOS.items()]
    vec = sum(row["vectorized_seconds"] for row in rows)
    slow = sum(row["slow_reference_seconds"] for row in rows)
    return {
        "n": n,
        "repeats": repeats,
        "machine": {"M": params.M, "B": params.B, "omega": params.omega},
        "rows": rows,
        "selection": _compare(
            "selection", _selection, data[: k * params.M], params, k, repeats
        ),
        "vectorized_seconds": round(vec, 4),
        "slow_reference_seconds": round(slow, 4),
        "speedup": round(slow / vec, 3),
        "counters_identical": True,
    }


def smoke_baseline(n: int = 30_000) -> str:  # pragma: no cover - generator
    """(Re)generate the committed CI-smoke baseline record."""
    from conftest import emit_bench_json

    return emit_bench_json(
        "perf_smoke",
        {"n": n, "scaled": measure(n, SCALED, 4, repeats=3),
         "toy": measure(n, TOY, 4, repeats=3)},
    )


def main() -> None:  # pragma: no cover - record generator
    from conftest import emit_bench_json

    record = {
        "scaled": measure(100_000, SCALED, repeats=3),
        "toy": measure(100_000, TOY, repeats=2),
    }
    path = emit_bench_json("e06_three_sorts_n100k", record)
    scaled = record["scaled"]
    print(f"wrote {path}")
    for regime in ("scaled", "toy"):
        rec = record[regime]
        print(
            f"{regime}: n={rec['n']} {rec['machine']} "
            f"vec {rec['vectorized_seconds']}s vs slow "
            f"{rec['slow_reference_seconds']}s -> {rec['speedup']}x"
        )
        sel = rec["selection"]
        print(
            f"{regime} selection: n={sel['n']} vec {sel['vectorized_seconds']}s "
            f"vs slow {sel['slow_reference_seconds']}s -> {sel['speedup']}x"
        )
    assert scaled["speedup"] >= 3.0, (
        f"headline speedup {scaled['speedup']}x fell below the 3x target"
    )


if __name__ == "__main__":  # pragma: no cover
    import sys
    import os

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    main()
