"""Kernel-mode registry: vectorized block kernels vs the record-at-a-time
reference implementations.

The paper's algorithms are *defined* in block transfers, but the original
implementations execute them record-at-a-time: ``machine.scan`` yields one
record per iteration, ``BlockWriter.append`` is called once per record, and
the cost counter is touched on every block event.  On a real interpreter that
makes simulated wall-clock a function of Python dispatch overhead, not of the
algorithms.  The *vectorized* kernels move whole blocks — ``scan_blocks`` /
``BlockWriter.extend`` / ``extend_blocks`` — partition and merge with
``bisect`` over sorted blocks, and charge the counter in batches
(:meth:`repro.models.counters.CostCounter.charge_reads` /
:meth:`~repro.models.counters.CostCounter.charge_writes`).

Vectorization is required to be **I/O-invisible**: for every algorithm the
vectorized path must produce byte-identical output blocks and *exactly* the
same ``reads`` / ``writes`` / ``cost`` tallies as the record-at-a-time path,
because the counters are the paper's claim.  The original implementations are
therefore kept, verbatim, behind the ``"slow_reference"`` mode, and the
parity suite (``tests/test_kernel_parity.py``) pins the two modes against
each other on outputs and counters.

Selecting a mode
----------------
Every sort entry point takes ``kernel=None`` which resolves against the
process-wide default (``"vectorized"``):

>>> from repro.core.kernels import kernel_mode, set_default_kernel
>>> with kernel_mode("slow_reference"):
...     report = engine.sort(data)          # record-at-a-time everywhere
>>> set_default_kernel("vectorized")        # the default

The mode is deliberately a plain module global (not thread-local): the AEM
machine is a single-threaded simulation, and benchmark harnesses flip the
whole process between modes to measure the kernel layer itself.  A module
global does not cross a ``fork``/``spawn`` on its own, so the process-pool
worker pool ships the submitting process's default along explicitly — the
persistent-worker protocol carries it per job message — which keeps
``kernel_mode(...)`` A/B measurements honest under ``executor="process"``.
"""

from __future__ import annotations

import contextlib

#: the block-granular fast path (default)
VECTORIZED = "vectorized"
#: the original record-at-a-time implementations, kept for parity testing
SLOW_REFERENCE = "slow_reference"

_MODES = (VECTORIZED, SLOW_REFERENCE)

_default_kernel = VECTORIZED


def get_default_kernel() -> str:
    """The process-wide kernel mode used when a sort passes ``kernel=None``."""
    return _default_kernel


def set_default_kernel(mode: str) -> str:
    """Set the process-wide default kernel mode; returns the previous one."""
    global _default_kernel
    if mode not in _MODES:
        raise ValueError(f"unknown kernel mode {mode!r}; choose from {_MODES}")
    previous = _default_kernel
    _default_kernel = mode
    return previous


def resolve_kernel(kernel: str | None) -> str:
    """Validate an explicit ``kernel=`` argument or fall back to the default."""
    if kernel is None:
        return _default_kernel
    if kernel not in _MODES:
        raise ValueError(f"unknown kernel mode {kernel!r}; choose from {_MODES}")
    return kernel


@contextlib.contextmanager
def kernel_mode(mode: str):
    """Context manager: run a block with the given default kernel mode."""
    previous = set_default_kernel(mode)
    try:
        yield mode
    finally:
        set_default_kernel(previous)


#: declarative registry of every sort path that dispatches on the kernel
#: mode: ``name -> {"vectorized": "module:callable", "slow_reference":
#: "module:callable"}``.  Populated at import time by each kernel-path
#: module via :func:`register_kernel_entry`.
KERNEL_ENTRIES: dict[str, dict[str, str]] = {}

#: cost-contract metadata, parallel to :data:`KERNEL_ENTRIES` so the mode
#: dict keeps its exact ``{vectorized, slow_reference}`` shape:
#: ``name -> theorem label`` matching the kernel's ``declare_contract``
#: declaration in :mod:`repro.analysis.boundcheck`.  Populated by the
#: ``contract=`` argument of :func:`register_kernel_entry`; the
#: ``missing-cost-contract`` lint rule fails any registration without it.
KERNEL_CONTRACTS: dict[str, str] = {}


def register_kernel_entry(name: str, *, vectorized: str,
                          slow_reference: str,
                          contract: str | None = None) -> None:
    """Declare one kernel-dispatched sort path and its mode pair.

    ``vectorized`` and ``slow_reference`` are ``"module:callable"``
    references to the entry point serving each mode (usually the same
    callable, selected via its ``kernel=`` argument).  The declaration is
    the contract the ``kernel-parity`` lint rule enforces statically: every
    registered entry must name a ``slow_reference`` counterpart, and the
    vectorized callable must be pinned by ``tests/test_kernel_parity.py``.

    ``contract`` is the paper-bound label (e.g. ``"Theorem 4.3"``) binding
    this kernel to its cost contract in
    :mod:`repro.analysis.boundcheck` — it must equal the ``theorem=`` of
    the kernel's ``declare_contract`` declaration there, and the
    ``missing-cost-contract`` lint rule plus ``python -m repro certify``
    both fail when it is absent or mismatched.

    Arguments must be string literals so the rules can check them without
    importing anything.
    """
    if not vectorized or not slow_reference:
        raise ValueError(
            f"kernel entry {name!r} must name both a vectorized and a "
            "slow_reference implementation"
        )
    KERNEL_ENTRIES[name] = {
        VECTORIZED: vectorized,
        SLOW_REFERENCE: slow_reference,
    }
    if contract is not None:
        KERNEL_CONTRACTS[name] = contract
    else:
        KERNEL_CONTRACTS.pop(name, None)


def take_smallest(blocks, take: int, lo=None) -> list:
    """The shared bounded-selection kernel: the ``take`` smallest records
    strictly greater than ``lo`` across an iterable of record lists,
    returned ascending.

    Per block, the candidate window is filtered with one comprehension;
    the working set is pruned back to ``take`` (a C-level sort of a mostly
    sorted list) only when it overflows a half-working-set margin, so the
    amortized cost is O(log) per surviving candidate and the scratch stays
    <= 1.5 * ``take`` records.  The result is the exact ``take``-smallest
    multiset — every record the running cutoff drops provably cannot be
    among the final ``take`` — matching the record-at-a-time bounded
    max-heap of the Lemma 4.2 reference implementations.
    """
    working: list = []
    cutoff = None  # the take-th smallest seen so far, once known
    margin = take + (take >> 1) + 1
    for block in blocks:
        if lo is None:
            cand = block if cutoff is None else [r for r in block if r < cutoff]
        elif cutoff is None:
            cand = [r for r in block if r > lo]
        else:
            cand = [r for r in block if lo < r < cutoff]
        if not cand:
            continue
        working.extend(cand)
        if len(working) >= margin:
            working.sort()
            del working[take:]
            cutoff = working[-1]
    working.sort()
    del working[take:]
    return working


def take_smallest_indexed(blocks, take: int, lo=None) -> list:
    """Position-decorated :func:`take_smallest`: the ``take`` smallest
    ``(record, scan position)`` pairs strictly greater than the pair ``lo``,
    returned ascending.

    The paper's §2 remark — *"a position index can always be added to make
    keys unique"* — applied below the selection kernel: decorating each
    record with its global scan offset makes every key unique, so the
    running cutoff advances even through runs of duplicates.  Positions are
    derived from the scan order alone (free metadata, no extra I/O), and
    the decoration orders duplicates by position, i.e. the selection
    becomes a *stable* sort.  Same pruning discipline and the same exact
    ``take``-smallest guarantee as :func:`take_smallest`, now over pairs.
    """
    working: list = []
    cutoff = None  # the take-th smallest pair seen so far, once known
    margin = take + (take >> 1) + 1
    base = 0
    for block in blocks:
        cand = [(r, base + i) for i, r in enumerate(block)]
        base += len(block)
        if lo is not None:
            cand = [p for p in cand if p > lo]
        if cutoff is not None:
            cand = [p for p in cand if p < cutoff]
        if not cand:
            continue
        working.extend(cand)
        if len(working) >= margin:
            working.sort()
            del working[take:]
            cutoff = working[-1]
    working.sort()
    del working[take:]
    return working
