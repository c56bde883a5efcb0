"""repro — Sorting with Asymmetric Read and Write Costs (SPAA 2015).

A faithful, executable reproduction of Blelloch, Fineman, Gibbons, Gu & Shun,
*Sorting with Asymmetric Read and Write Costs* (SPAA 2015 / arXiv:1603.03505):
asymmetric-cost machine models (RAM, PRAM, External Memory, Ideal-Cache) and
the paper's write-efficient algorithms for sorting, FFT and matrix
multiplication, instrumented so every theorem's read/write/depth bound can be
measured.

Quickstart
----------
>>> from repro import MachineParams, AEMachine, aem_mergesort
>>> params = MachineParams(M=64, B=8, omega=8)
>>> machine = AEMachine(params)
>>> arr = machine.from_list([5, 3, 8, 1, 9, 2, 7, 4, 6, 0])
>>> out = aem_mergesort(machine, arr, k=4)
>>> out.peek_list()
[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]
>>> machine.counter.block_cost(params.omega) > 0
True
"""

from .api import SortReport
from .engine import EXTERNAL_SORTS, SortEngine, StreamSession, ram_sort_report
from .core import (
    AEMPriorityQueue,
    BufferTree,
    aem_heapsort,
    aem_mergesort,
    aem_samplesort,
    bst_sort,
    get_default_kernel,
    kernel_mode,
    selection_sort,
    set_default_kernel,
)
from .models import (
    AEMachine,
    CacheSim,
    CostCounter,
    DepthTracker,
    InstrumentedArray,
    MachineParams,
    MemoryGuard,
    SimArray,
)
from .planner import (
    BatchReport,
    CostConstants,
    PlanCache,
    SortJob,
    SortPlan,
    calibrate,
    plan_sort,
    rank_plans,
)
from .service import (
    EngineServer,
    ServiceClient,
    SortFuture,
    SortService,
    WorkerDiedError,
)

__version__ = "1.0.0"

# Runtime sanitizers, environment-activated so they reach spawned worker
# processes too (the env propagates through multiprocessing): REPRO_IOSAN=1
# cross-checks every physical block transfer against the CostCounter,
# REPRO_LOCKSAN=1 records lock acquisition order across the service layer.
import os as _os

if _os.environ.get("REPRO_IOSAN", "0") not in ("", "0"):
    from .analysis import iosan as _iosan

    _iosan.enable()
if _os.environ.get("REPRO_LOCKSAN", "0") not in ("", "0"):
    from .analysis import locksan as _locksan

    _locksan.enable()
del _os

__all__ = [
    "AEMPriorityQueue",
    "AEMachine",
    "BatchReport",
    "BufferTree",
    "CacheSim",
    "CostConstants",
    "CostCounter",
    "DepthTracker",
    "EXTERNAL_SORTS",
    "EngineServer",
    "InstrumentedArray",
    "MachineParams",
    "MemoryGuard",
    "PlanCache",
    "ServiceClient",
    "SimArray",
    "SortEngine",
    "SortFuture",
    "SortJob",
    "SortPlan",
    "SortReport",
    "SortService",
    "StreamSession",
    "WorkerDiedError",
    "aem_heapsort",
    "aem_mergesort",
    "aem_samplesort",
    "bst_sort",
    "calibrate",
    "get_default_kernel",
    "kernel_mode",
    "plan_sort",
    "ram_sort_report",
    "rank_plans",
    "selection_sort",
    "set_default_kernel",
    "__version__",
]
