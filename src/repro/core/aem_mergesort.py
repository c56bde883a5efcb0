"""Algorithm 2: AEM mergesort with branching factor l = kM/B (§4.1).

Structure
---------
* Base case ``n <= kM``: the Lemma 4.2 selection sort.
* Otherwise: partition into ``l = kM/B`` block-aligned subarrays (free),
  recursively sort each, then merge all ``l`` runs with an in-memory
  priority queue of capacity ``M``, in *rounds*:

  - **Phase 1** re-reads the current block of every run and inserts eligible
    records (``lastV < key``) into the queue, ejecting the maximum when full.
  - **Phase 2** drains the queue in increasing order to the output; whenever
    the popped record is the last of its block, the run's pointer advances
    and the next block is processed immediately.

Theorem 4.3 bounds: ``R(n) <= (k+1) ceil(n/B) ceil(log_{kM/B}(n/B))`` reads
and ``W(n) <= ceil(n/B) ceil(log_{kM/B}(n/B))`` writes
(:func:`repro.analysis.formulas.mergesort_reads` / ``mergesort_writes``).

Round-threshold correction
--------------------------
The paper's pseudocode admits phase-2 records whenever ``lastV < key <
Q.max`` with ``Q.max = +inf`` when the queue is not full.  As written this
can *strand a record permanently*: a record ``r`` rejected in phase 1
(``r > Q.max``) stays in its un-advanced block, but phase 2 may admit and
output later-block records **larger** than ``r`` (the queue is no longer
full, so ``Q.max = +inf``); once ``lastV > r``, every later round's filter
``(lastV, Q.max)`` excludes ``r`` forever.

Fix: maintain a per-round threshold ``T`` (initially ``+inf``).  Whenever a
record is passed over because of queue capacity — ejected, or skipped because
``key >= Q.max`` — lower ``T`` to that record's key.  Admit records only when
``lastV < key < T``.  Invariants (asserted in tests):

* queue contents are always ``< T`` (ejection sets ``T`` to the old max;
  skipping sets ``T`` to a key ``>=`` the current max), so every output of
  the round is ``< T``;
* every stranded record has key ``>= T > lastV`` at round end, so the next
  round's phase 1 re-admits it;
* outputs within a round are strictly increasing (phase-2 insertions exceed
  the just-popped block-last record, which is the running maximum pop).

A round still outputs at least ``M`` records whenever any capacity event
occurred (the queue held ``M`` records at that moment and all of them pop
this round), so Lemma 4.1's ``ceil(n/M)``-round bound — and hence Theorem
4.3 — is unchanged.
"""

from __future__ import annotations

import bisect

from ..models.external_memory import AEMachine, ExtArray, MemoryGuard
from .kernels import SLOW_REFERENCE, register_kernel_entry, resolve_kernel
from .selection_sort import selection_sort

register_kernel_entry(
    "mergesort",
    vectorized="repro.core.aem_mergesort:aem_mergesort",
    slow_reference="repro.core.aem_mergesort:aem_mergesort",  # same entry point, kernel="slow_reference"
    contract="Theorem 4.3",
)


_INF = object()  # sentinel: larger than every key


class StrandingDetected(RuntimeError):
    """Raised when the paper-literal merge (``round_threshold=False``)
    permanently strands a record — the erratum this module's docstring
    documents.  The fixed algorithm never raises this."""


class _MergeQueue:
    """In-memory double-ended priority queue of capacity M.

    Primary-memory operations are free in the AEM model, so we simply keep a
    sorted list (``bisect``-maintained).  Entries are ``(key, run_index,
    is_last_in_block)``.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._items: list[tuple] = []

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    def max_key(self):
        """Largest key currently in the queue (queue must be non-empty)."""
        return self._items[-1][0]

    def push(self, entry: tuple) -> None:
        bisect.insort(self._items, entry)

    def pop_min(self) -> tuple:
        return self._items.pop(0)

    def eject_max(self) -> tuple:
        return self._items.pop()


def aem_mergesort(
    machine: AEMachine,
    arr: ExtArray,
    k: int = 1,
    guard: MemoryGuard | None = None,
    *,
    round_threshold: bool = True,
    kernel: str | None = None,
) -> ExtArray:
    """Sort ``arr`` on the AEM machine; ``k = 1`` recovers classic EM mergesort.

    Parameters
    ----------
    k:
        Extra branching factor, ``1 <= k`` (the paper uses ``k = O(omega)``;
        Appendix A gives the profitable range ``k/log k < omega/log(M/B)``).
    round_threshold:
        ``True`` (default) applies the round-threshold correction described
        in the module docstring.  ``False`` runs the paper's pseudocode
        *literally* — provided as an ablation so the erratum is empirically
        demonstrable; on adversarial inputs it raises
        :class:`StrandingDetected` instead of silently dropping records.
    kernel:
        ``"vectorized"`` (default) merges with block-granular bulk drains;
        ``"slow_reference"`` runs the original record-at-a-time queue.  The
        paper-literal ablation (``round_threshold=False``) always runs the
        reference kernel — it exists to reproduce that code path exactly.

    Returns a new sorted :class:`ExtArray`.
    """
    params = machine.params
    kernel = resolve_kernel(kernel)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    l = params.fanout(k)
    if l < 2:
        raise ValueError(
            f"fanout l = k*M/B = {l} < 2; increase M/B or k so merging can make progress"
        )
    if guard is None:
        guard = MemoryGuard()

    if arr.length <= k * params.M:
        return selection_sort(machine, arr, guard=guard, kernel=kernel)

    runs = machine.split_blocks(arr, l)
    sorted_runs = [
        aem_mergesort(machine, run, k, guard, round_threshold=round_threshold,
                      kernel=kernel)
        for run in runs
    ]
    if kernel == SLOW_REFERENCE or not round_threshold:
        return _merge(machine, sorted_runs, guard, round_threshold=round_threshold)
    return _merge_vectorized(machine, sorted_runs, guard)


def _merge(
    machine: AEMachine,
    runs: list[ExtArray],
    guard: MemoryGuard,
    *,
    round_threshold: bool = True,
) -> ExtArray:
    """Lemma 4.1 multi-way merge (with the round-threshold correction)."""
    params = machine.params
    n = sum(r.length for r in runs)
    out = machine.writer(name="merge-out")
    if n == 0:
        return out.close()

    # primary memory: queue (M) + load buffer (B) + store buffer (B)
    footprint = params.M + 2 * params.B

    queue = _MergeQueue(params.M)
    pointers = [0] * len(runs)  # I_1..I_l: current block index per run
    last_v = None  # last value written to the output (None = -inf)
    written = 0
    threshold = _INF  # per-round cap T (reset each round)

    def admissible(key) -> bool:
        if last_v is not None and key <= last_v:
            return False
        return threshold is _INF or key < threshold

    def process_block(i: int) -> None:
        """Read run i's current block and insert eligible records."""
        nonlocal threshold
        run = runs[i]
        bi = pointers[i]
        if bi >= run.num_blocks:
            return
        block = machine.read_block(run, bi, copy=False)
        for pos, rec in enumerate(block):
            if not admissible(rec):
                continue
            is_last = pos == len(block) - 1
            if queue.full:
                if rec < queue.max_key():
                    ejected = queue.eject_max()
                    if round_threshold:
                        threshold = (
                            ejected[0]
                            if threshold is _INF
                            else min(threshold, ejected[0])
                        )
                    queue.push((rec, i, is_last))
                elif round_threshold:
                    # skipped due to capacity: cap the round at this key
                    threshold = (
                        rec if threshold is _INF else min(threshold, rec)
                    )
            else:
                queue.push((rec, i, is_last))

    guard.acquire(footprint)
    try:
        while written < n:
            threshold = _INF
            # ---- phase 1: one pass over every run's current block ------
            for i in range(len(runs)):
                process_block(i)
            if len(queue) == 0:
                raise StrandingDetected(
                    "merge round admitted no records with "
                    f"{n - written} unwritten: the paper-literal filter "
                    "stranded them (see the module docstring erratum)"
                )
            # ---- phase 2: drain the queue, chasing block boundaries ----
            while len(queue) > 0:
                key, i, is_last = queue.pop_min()
                out.append(key)
                last_v = key
                written += 1
                if is_last:
                    pointers[i] += 1
                    process_block(i)
    finally:
        guard.release(footprint)
    return out.close()


def _splice_sorted(items: list, seg: list) -> None:
    """Merge sorted ``seg`` into sorted ``items`` in place.

    Finds each maximal run of ``seg`` that falls into one gap of ``items``
    (``bisect``) and inserts it with a single slice assignment — a C-level
    ``memmove`` per *gap*, instead of one ``insort`` per record.
    """
    ins = 0
    i0 = 0
    ns = len(seg)
    while i0 < ns:
        ins = bisect.bisect_right(items, seg[i0], ins)
        if ins == len(items):
            items.extend(seg[i0:] if i0 else seg)
            return
        j = bisect.bisect_left(seg, items[ins], i0)
        items[ins:ins] = seg[i0:j]
        ins += j - i0
        i0 = j


def _merge_vectorized(
    machine: AEMachine,
    runs: list[ExtArray],
    guard: MemoryGuard,
) -> ExtArray:
    """Block-granular Lemma 4.1 merge (round-threshold semantics).

    Control flow — which block is read when, which records each round
    admits, ejects or strands — is *identical* to :func:`_merge`; only the
    in-memory mechanics are batched:

    * phase-1 admission slices a block's admissible segment with ``bisect``
      (runs are sorted, so records ``<= lastV`` are a prefix and records
      ``>= T`` a suffix) and, when the whole segment fits without capacity
      events, splices it into the queue with one C-level sort of two sorted
      runs; capacity-constrained blocks fall back to the reference's
      faithful eject/skip loop;
    * phase-2 drains the maximal queue prefix up to the next block-boundary
      entry with one ``extend`` to the output writer instead of a ``pop(0)``
      (an O(M) list shift!) per record.

    Both give byte-identical outputs and counters; the parity suite pins it.
    """
    params = machine.params
    n = sum(r.length for r in runs)
    out = machine.writer(name="merge-out")
    if n == 0:
        return out.close()

    footprint = params.M + 2 * params.B

    M = params.M
    items: list[tuple] = []  # sorted entries (key, run_index, is_last_in_block)
    pointers = [0] * len(runs)  # I_1..I_l: current block index per run
    last_v = None  # last value written to the output (None = -inf)
    written = 0
    threshold = _INF  # per-round cap T (reset each round)

    def process_block(i: int) -> None:
        """Read run i's current block and admit eligible records in bulk."""
        nonlocal threshold
        run = runs[i]
        bi = pointers[i]
        if bi >= run.num_blocks:
            return
        block = machine.read_block(run, bi, copy=False)
        blk_len = len(block)
        start = bisect.bisect_right(block, last_v) if last_v is not None else 0
        if threshold is _INF:
            end = blk_len
        else:
            end = bisect.bisect_left(block, threshold, start)
        if end <= start:
            return
        if start == 0 and end == blk_len:
            seg = [(rec, i, False) for rec in block]
            seg[-1] = (block[-1], i, True)
        else:
            last_pos = blk_len - 1
            seg = [(block[pos], i, pos == last_pos) for pos in range(start, end)]
        free = M - len(items)
        if len(seg) <= free:
            # no capacity event possible: splice the sorted segment into the
            # sorted queue, one C-level slice insertion per gap
            if not items or seg[0] >= items[-1]:
                items.extend(seg)
            else:
                _splice_sorted(items, seg)
            return
        # Capacity-constrained admission, batched.  The reference processes
        # the (ascending) segment one record at a time: fill free slots,
        # then each further record either ejects the queue max (if smaller)
        # or is skipped, capping the round threshold and ending the block
        # (everything later is larger still).  Because admitted records are
        # never the queue max, the ejected entries are exactly the top ``t``
        # of the pre-admission queue, where ``t`` is the largest prefix of
        # the segment with ``seg[j] < items[M-1-j]`` — so the whole exchange
        # is one slice delete plus one splice, and the threshold drops to
        # the smallest ejected key (then to the first skipped key, if that
        # skip was still admissible).
        if free:
            head = seg[:free]
            if not items or head[0] >= items[-1]:
                items.extend(head)
            else:
                _splice_sorted(items, head)
            seg = seg[free:]
        t = 0
        ns = len(seg)
        while t < ns and seg[t][0] < items[M - 1 - t][0]:
            t += 1
        if t:
            ejected_min = items[M - t][0]
            threshold = (
                ejected_min if threshold is _INF else min(threshold, ejected_min)
            )
            del items[M - t :]
            admitted = seg[:t]
            if not items or admitted[0] >= items[-1]:
                items.extend(admitted)
            else:
                _splice_sorted(items, admitted)
        if t < ns:
            rec = seg[t][0]
            if threshold is _INF or rec < threshold:
                # skipped due to capacity while still admissible: cap the
                # round at this key
                threshold = rec if threshold is _INF else min(threshold, rec)

    n_runs = len(runs)
    phase1_margin = M + 1 + (M >> 1)
    guard.acquire(footprint)
    try:
        while written < n:
            # ---- phase 1: one pass over every run's current block ----------
            # The round starts with an empty queue, so its outcome is closed
            # form: the queue ends as the M smallest admissible entries across
            # all current blocks, and the round threshold T ends at the
            # (M+1)-th (every eject/skip key has M smaller keys already seen,
            # so T can never undercut it; the (M+1)-th itself is ejected,
            # skipped, or T-filtered).  Gather candidate windows per run with
            # one listcomp each, keep the M+1 smallest (pruned at 1.5M so the
            # scratch stays bounded), then cut the queue and T together —
            # no per-record queue traffic at all.
            threshold = _INF
            cutoff = None  # running (M+1)-th smallest key
            for i in range(n_runs):
                run = runs[i]
                bi = pointers[i]
                if bi >= run.num_blocks:
                    continue
                block = machine.read_block(run, bi, copy=False)
                blk_len = len(block)
                start = bisect.bisect_right(block, last_v) if last_v is not None else 0
                end = (
                    blk_len
                    if cutoff is None
                    else bisect.bisect_right(block, cutoff, start)
                )
                if end <= start:
                    continue
                if start == 0 and end == blk_len:
                    seg = [(rec, i, False) for rec in block]
                    seg[-1] = (block[-1], i, True)
                else:
                    last_pos = blk_len - 1
                    seg = [(block[pos], i, pos == last_pos) for pos in range(start, end)]
                items.extend(seg)
                if len(items) >= phase1_margin:
                    items.sort()
                    del items[M + 1 :]
                    cutoff = items[-1][0]
            items.sort()
            if len(items) > M:
                threshold = items[M][0]
                del items[M:]
            if not items:
                raise StrandingDetected(
                    "merge round admitted no records with "
                    f"{n - written} unwritten: the paper-literal filter stranded "
                    "them (see the module docstring erratum)"
                )
            # ---- phase 2: bulk-drain up to each block boundary -------------
            while items:
                idx = 0
                n_items = len(items)
                while idx < n_items and not items[idx][2]:
                    idx += 1
                if idx == n_items:
                    # no boundary entry left: drain the whole queue
                    out.extend([e[0] for e in items])
                    written += n_items
                    last_v = items[-1][0]
                    items.clear()
                    break
                batch = items[: idx + 1]
                del items[: idx + 1]
                out.extend([e[0] for e in batch])
                written += len(batch)
                last_v, i, _ = batch[-1]
                pointers[i] += 1
                process_block(i)

    finally:
        guard.release(footprint)
    return out.close()
