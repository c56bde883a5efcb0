"""Cross-module integration tests: the models and algorithms agree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MachineParams, SortEngine, ram_sort_report
from repro.core.co_sort import co_sort
from repro.core.pram_sample_sort import pram_sample_sort
from repro.models import CacheSim
from repro.workloads import random_permutation

PARAMS = MachineParams(M=64, B=8, omega=8)


@given(data=st.lists(st.integers(), unique=True, max_size=250), seed=st.integers(0, 30))
@settings(max_examples=20, deadline=None)
def test_differential_all_sorters(data, seed):
    """One input, every sorting algorithm in the library, one answer.

    A differential fuzz: models (RAM / PRAM / AEM / ideal-cache), algorithms
    (BST, sample sorts, mergesort, heapsort, CO sort) and parameters all
    vary; any divergence pinpoints the odd implementation out.
    """
    expected = sorted(data)
    small = MachineParams(M=16, B=4, omega=4)
    outputs = {
        "ram-bst": ram_sort_report(data, "bst-rb").output,
        "aem-merge": SortEngine(small).sort(data, "mergesort", k=2).output,
        "aem-sample": SortEngine(small).sort(data, "samplesort", k=2).output,
        "aem-heap": SortEngine(small).sort(data, "heapsort", k=2).output,
        "pram": pram_sample_sort(list(data), omega=4, seed=seed).output,
    }
    cache = CacheSim(small, policy="lru")
    arr = cache.array(list(data))
    co_sort(cache, arr, omega=4)
    outputs["co-sort"] = arr.peek_list()
    for name, out in outputs.items():
        assert out == expected, f"{name} diverged"


class TestAllSortersAgree:
    """Every sorting algorithm in the library, one input, one answer."""

    N = 1200

    @pytest.fixture(scope="class")
    def data(self):
        return random_permutation(self.N, seed=99)

    @pytest.fixture(scope="class")
    def expected(self, data):
        return sorted(data)

    @pytest.mark.parametrize("alg", ["mergesort", "samplesort", "heapsort", "selection"])
    def test_external(self, data, expected, alg):
        assert SortEngine(PARAMS).sort(data, algorithm=alg, k=2).output == expected

    @pytest.mark.parametrize(
        "alg", ["bst-rb", "bst-treap", "bst-avl", "quicksort", "mergesort", "heapsort"]
    )
    def test_ram(self, data, expected, alg):
        assert ram_sort_report(data, algorithm=alg).output == expected

    def test_pram(self, data, expected):
        assert pram_sample_sort(data, omega=8, seed=1).output == expected

    def test_cache_oblivious(self, data, expected):
        cache = CacheSim(MachineParams(M=256, B=16, omega=8), policy="lru")
        arr = cache.array(data)
        co_sort(cache, arr)
        assert arr.peek_list() == expected


class TestCostModelCoherence:
    def test_higher_omega_amplifies_large_k_advantage(self):
        """The library's end-to-end story: the payoff of a write-efficient
        branching factor grows with omega."""
        n = 6000
        data = random_permutation(n, seed=100)
        improvement = {}
        for omega in (2, 32):
            params = MachineParams(M=64, B=8, omega=omega)
            cost = {
                k: SortEngine(params).sort(data, algorithm="mergesort", k=k).cost()
                for k in (1, 4)
            }
            improvement[omega] = cost[1] / cost[4]
        assert improvement[32] > improvement[2]
        assert improvement[32] > 1.3  # decisive win at high asymmetry

    def test_counts_independent_of_omega(self):
        """omega only weights costs; it must not change transfer counts."""
        data = random_permutation(2000, seed=101)
        reps = [
            SortEngine(MachineParams(M=64, B=8, omega=w)).sort(data, "mergesort", k=4)
            for w in (2, 16)
        ]
        assert reps[0].reads == reps[1].reads
        assert reps[0].writes == reps[1].writes

    def test_rwlru_policy_never_writes_more_blocks_than_accesses(self):
        params = MachineParams(M=64, B=8, omega=8)
        cache = CacheSim(params, policy="rwlru")
        data = random_permutation(2000, seed=102)
        arr = cache.array(data)
        co_sort(cache, arr)
        cache.flush()
        assert cache.counter.block_writes <= cache.counter.block_reads * 2

    def test_external_and_ram_reports_comparable(self):
        data = random_permutation(800, seed=103)
        ext = SortEngine(PARAMS).sort(data, "mergesort", k=2)
        ram = ram_sort_report(data, "bst-rb")
        assert ext.output == ram.output
        # block-level traffic is ~B times smaller than word-level
        assert ext.reads < ram.reads
