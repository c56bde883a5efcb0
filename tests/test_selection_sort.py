"""Tests for the Lemma 4.2 selection-sort base case — exact bound checks."""

import functools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.formulas import selection_sort_reads, selection_sort_writes
from repro.core.aem_mergesort import aem_mergesort
from repro.core.aem_samplesort import aem_samplesort
from repro.core.kernels import SLOW_REFERENCE, VECTORIZED, take_smallest
from repro.core.selection_sort import selection_sort
from repro.models import AEMachine, MachineParams, MemoryGuard
from repro.workloads import random_permutation, reverse_sorted


def run(data, M=64, B=8, omega=8):
    machine = AEMachine(MachineParams(M=M, B=B, omega=omega))
    arr = machine.from_list(data)
    guard = MemoryGuard()
    out = selection_sort(machine, arr, guard=guard)
    return out, machine, guard


class TestCorrectness:
    def test_basic(self):
        out, _, _ = run(random_permutation(200, seed=1))
        assert out.peek_list() == list(range(200))

    def test_empty(self):
        out, machine, _ = run([])
        assert out.peek_list() == []
        assert machine.counter.total_io() == 0

    def test_single_block(self):
        out, _, _ = run([3, 1, 2])
        assert out.peek_list() == [1, 2, 3]

    def test_exactly_M(self):
        out, machine, _ = run(reverse_sorted(64))
        assert out.peek_list() == list(range(64))
        # one phase: n/B reads, n/B writes
        assert machine.counter.block_reads == 8
        assert machine.counter.block_writes == 8

    def test_partial_final_block(self):
        out, _, _ = run(random_permutation(67, seed=2))
        assert out.peek_list() == list(range(67))

    @given(st.lists(st.integers(), unique=True, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_property(self, data):
        out, _, _ = run(data, M=16, B=4)
        assert out.peek_list() == sorted(data)


class TestLemma42Bounds:
    @pytest.mark.parametrize("mult", [1, 2, 3, 5, 8])
    def test_exact_bounds(self, mult):
        M, B = 64, 8
        n = mult * M
        data = random_permutation(n, seed=n)
        out, machine, guard = run(data, M=M, B=B)
        assert out.peek_list() == sorted(data)
        k = math.ceil(n / M)
        assert machine.counter.block_reads <= k * math.ceil(n / B)
        assert machine.counter.block_writes == math.ceil(n / B)

    def test_predicted_helpers(self):
        assert selection_sort_writes(100, 8) == 13
        assert selection_sort_reads(100, 64, 8) == 2 * 13

    def test_memory_within_m_plus_buffers(self):
        M, B = 64, 8
        _, _, guard = run(random_permutation(5 * M, seed=3), M=M, B=B)
        assert guard.high_water <= M + 2 * B

    def test_writes_independent_of_passes(self):
        """Writes must not grow with k: every record written exactly once."""
        M, B = 16, 4
        for mult in (1, 4, 16):
            n = mult * M
            _, machine, _ = run(random_permutation(n, seed=n), M=M, B=B)
            assert machine.counter.block_writes == math.ceil(n / B)


def _typed_run(sort, data, kernel, params):
    machine = AEMachine(params)
    out = sort(machine, machine.from_list(data), kernel)
    typed = [[(type(r), r) for r in blk] for blk in out._blocks]
    return typed, machine.counter.as_dict()


class TestTieParity:
    """The vectorized selection kernel must return the reference's records,
    not just equal ones: ``fast._blocks == slow._blocks`` holds even when
    1, 1.0 and True trade places, so these checks compare types too."""

    SORTS = {
        "selection": lambda m, a, kernel: selection_sort(m, a, kernel=kernel),
        "samplesort": lambda m, a, kernel: aem_samplesort(
            m, a, k=4, seed=23, kernel=kernel
        ),
        "mergesort": lambda m, a, kernel: aem_mergesort(m, a, k=4, kernel=kernel),
    }

    @pytest.mark.parametrize("name", sorted(SORTS))
    # up to k*M = 256: the leaves every sort hands to Lemma 4.2
    @pytest.mark.parametrize("n", [1, 9, 64, 65, 200, 256])
    def test_mixed_equal_values_keep_reference_order(self, name, n):
        params = MachineParams(M=64, B=8, omega=8)
        rng = random.Random(n)
        data = [rng.choice([1, 1.0, True, 0, 0.0, False, 2, 2.0]) for _ in range(n)]
        fast = _typed_run(self.SORTS[name], data, VECTORIZED, params)
        slow = _typed_run(self.SORTS[name], data, SLOW_REFERENCE, params)
        assert fast == slow
        assert [r for blk in fast[0] for r in blk] == [
            (type(r), r) for r in sorted(data)
        ]

    @given(
        st.one_of(
            # all equal
            st.builds(lambda v, n: [v] * n, st.integers(-3, 3), st.integers(0, 600)),
            # few distinct values
            st.lists(st.integers(0, 3), max_size=600),
            # runs longer than M
            st.lists(
                st.tuples(st.integers(-2, 2), st.integers(1, 150)), max_size=8
            ).map(lambda runs: [v for v, n in runs for _ in range(n)]),
        ),
        st.sampled_from(
            [
                MachineParams(M=16, B=4, omega=2),
                MachineParams(M=64, B=8, omega=8),
                MachineParams(M=32, B=32, omega=4),
            ]
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_duplicate_heavy_selection_matches_reference(self, data, params):
        sort = self.SORTS["selection"]
        fast = _typed_run(sort, data, VECTORIZED, params)
        slow = _typed_run(sort, data, SLOW_REFERENCE, params)
        assert fast == slow
        assert fast[1]["block_reads"] == selection_sort_reads(
            len(data), params.M, params.B
        )


@functools.total_ordering
class _Tagged:
    """A record that compares by key only, so equal records stay distinct."""

    def __init__(self, key):
        self.key = key

    def __eq__(self, other):
        return self.key == other.key

    def __lt__(self, other):
        return self.key < other.key


class TestTakeSmallestTies:
    @pytest.mark.parametrize("skip", [0, 64, 7 * 64])
    def test_skips_exactly_the_emitted_copies(self, skip):
        M, B = 64, 8
        records = [_Tagged(5) for _ in range(8 * M)]
        blocks = [records[i : i + B] for i in range(0, len(records), B)]
        after = None if skip == 0 else (_Tagged(5), skip)
        got = take_smallest(iter(blocks), M, after=after)
        assert len(got) == M
        assert all(g is r for g, r in zip(got, records[skip : skip + M]))

    def test_greater_records_follow_the_remaining_copies(self):
        M = 64
        copies = [_Tagged(5) for _ in range(3 * M)]
        larger = [_Tagged(6) for _ in range(M)]
        records = [r for pair in zip(larger, copies) for r in pair] + copies[M:]
        blocks = [records[i : i + 8] for i in range(0, len(records), 8)]
        got = take_smallest(iter(blocks), M, after=(_Tagged(5), 3 * M - 10))
        expected = copies[-10:] + larger[: M - 10]
        assert all(g is r for g, r in zip(got, expected)) and len(got) == M
