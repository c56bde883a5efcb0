#!/usr/bin/env python3
"""Quickstart: sort under asymmetric read/write costs and read the bill.

One ``SortEngine`` owns the machine, the plan cache, and the calibrated
constants; every entry point hangs off it.  This walks the levels in ~50
lines of user code:

1. pick a machine (`MachineParams`): memory M, block size B, write cost omega;
2. build an engine and let it plan (``engine.sort(data)``) or pin a
   write-efficient algorithm and its classic counterpart explicitly;
3. compare the asymmetric I/O costs the algorithms pay;
4. push records incrementally through ``engine.stream()``.

Run:  python examples/quickstart.py
"""

from repro import MachineParams, SortEngine
from repro.analysis.ktuning import choose_k
from repro.analysis.tables import format_table
from repro.workloads import random_permutation


def main() -> None:
    # An NVM-like machine: writes cost 16x reads (cf. the PCM/ReRAM numbers
    # in §2 of the paper), 64-record primary memory, 8-record blocks.
    params = MachineParams(M=64, B=8, omega=16)
    engine = SortEngine(params)
    n = 10_000
    data = random_permutation(n, seed=42)

    print(f"machine {params}, n = {n}\n")

    # ---- external-memory sorting (§4) --------------------------------- #
    k = choose_k(params, n)  # Appendix-A branching factor
    rows = []
    for label, algorithm, kk in [
        ("classic EM mergesort (k=1)", "mergesort", 1),
        (f"AEM mergesort (k={k})", "mergesort", k),
        (f"AEM sample sort (k={k})", "samplesort", k),
        (f"AEM heapsort   (k={k})", "heapsort", k),
    ]:
        rep = engine.sort(data, algorithm=algorithm, k=kk)
        assert rep.is_sorted()
        rows.append(
            {
                "algorithm": label,
                "block reads": rep.reads,
                "block writes": rep.writes,
                "cost R+wW": rep.cost(),
            }
        )
    print(format_table(rows, title="External-memory sorts (Theorems 4.3/4.5/4.10)"))
    saved = rows[0]["cost R+wW"] / rows[1]["cost R+wW"]
    print(f"\nwrite-efficient mergesort is {saved:.2f}x cheaper than classic here\n")

    # ---- adaptive planning -------------------------------------------- #
    auto = engine.sort(data)  # the planner picks; the plan rides along
    print(
        f"engine.sort chose {auto.algorithm} "
        f"(predicted cost {auto.extras['plan']['chosen']['predicted_cost']:g}, "
        f"measured {auto.cost():g})\n"
    )

    # ---- RAM-model sorting (§3) ---------------------------------------- #
    from repro import ram_sort_report

    rows = []
    for alg in ("bst-rb", "heapsort"):
        rep = ram_sort_report(data, algorithm=alg)
        rows.append(
            {
                "algorithm": alg,
                "reads": rep.reads,
                "writes": rep.writes,
                "cost(w=16)": rep.cost(omega=16),
            }
        )
    print(format_table(rows, title="RAM sorts (§3): O(n) vs Theta(n log n) writes"))

    # ---- streaming ingestion (§4.3 buffer tree) ------------------------ #
    with engine.stream() as session:
        session.push_many(random_permutation(2000, seed=7))
        session.delete(13)
    rep = session.report
    print(
        f"\nstreamed 2000 records (1 deleted) -> {rep.n} out, sorted={rep.is_sorted()}, "
        f"{rep.reads} block reads, {rep.writes} block writes"
    )


if __name__ == "__main__":
    main()
