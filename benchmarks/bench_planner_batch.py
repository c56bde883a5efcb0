"""Planner subsystem benchmarks: process-pool scaling + calibrated ranking.

Two claims from the batch-execution PR are asserted here:

* the ``executor="process"`` backend produces *identical* model-level
  aggregates to the thread backend (the simulation is deterministic; only
  scheduling differs) and, on a multi-core host, higher records/s on a
  CPU-bound mixed scenario;
* constants calibrated from measured runs make the planner's predicted
  ranking of the four external sorts agree with their measured-cost ranking
  (mergesort is rankable on merit, not unrankable by construction).
"""

import os

from conftest import run_once

from repro import MachineParams, SortEngine, SortJob
from repro.planner.calibration import calibrate, compare_rankings
from repro.workloads import make_scenario

PARAMS = MachineParams(M=64, B=8, omega=8)


def _cpu_bound_jobs(count=12, n=40_000):
    mix = ["uniform", "reversed", "duplicates", "nearly-sorted"]
    return [
        SortJob(
            data=make_scenario(mix[i % 4], n, seed=i),
            params=PARAMS,
            label=f"{mix[i % 4]}/{i}",
        )
        for i in range(count)
    ]


def _engine_batch(jobs, executor):
    """One batch on a fresh engine whose pool is torn down afterwards."""
    with SortEngine(PARAMS, executor=executor) as engine:
        return engine.batch(jobs)


def bench_batch_process_scaling(benchmark):
    jobs = _cpu_bound_jobs()
    process = run_once(benchmark, _engine_batch, jobs, "process")
    thread = _engine_batch(jobs, "thread")
    assert not thread.failures and not process.failures
    # model-level aggregates are executor-independent
    assert process.total_reads == thread.total_reads
    assert process.total_writes == thread.total_writes
    assert process.total_cost() == thread.total_cost()
    cores = os.cpu_count() or 1
    best_process = process.records_per_second
    best_thread = thread.records_per_second
    if cores >= 2:
        # the scale-out claim: worker processes beat GIL-bound threads on a
        # CPU-bound mixed scenario when there is more than one core to use.
        # Wall-clock on shared runners is noisy — take best-of-N for each
        # backend before comparing (single rounds are unreliable)
        for _ in range(2):
            if best_process > best_thread:
                break
            best_process = max(
                best_process, _engine_batch(jobs, "process").records_per_second
            )
            best_thread = max(
                best_thread, _engine_batch(jobs, "thread").records_per_second
            )
        assert best_process > best_thread, (
            f"process {best_process:.0f} rec/s did not beat "
            f"thread {best_thread:.0f} rec/s on {cores} cores (best of 3)"
        )
    benchmark.extra_info.update(
        {
            "cores": cores,
            "thread_records_per_s": round(best_thread, 1),
            "process_records_per_s": round(best_process, 1),
            "speedup": round(best_process / max(best_thread, 1e-9), 2),
        }
    )


def bench_calibrated_ranking_agreement(benchmark):
    def calibrate_and_compare():
        constants = calibrate(PARAMS, sizes=(512, 2048))
        return constants, compare_rankings(PARAMS, constants, probe=4_096, seed=99)

    constants, comparison = run_once(benchmark, calibrate_and_compare)
    assert comparison.agree, (
        f"predicted {comparison.predicted_order} != measured {comparison.measured_order}"
    )
    # mergesort is rankable: its calibrated read constant undercuts samplesort's
    assert constants.read_constant("mergesort") < constants.read_constant("samplesort")
    benchmark.extra_info.update(
        {
            "predicted_ranking": ",".join(comparison.predicted_order),
            "mergesort_read_const": round(constants.read_constant("mergesort"), 3),
            "samplesort_read_const": round(constants.read_constant("samplesort"), 3),
        }
    )
