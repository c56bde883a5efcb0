"""Seeded benchmark inputs, including genuinely repeated keys.

Every generator in ``repro.workloads`` tie-breaks its keys, so none of them
ever hands the program two equal records.  These do: each input kind below
states how its keys repeat, and the same ``(workload, seed, index)`` always
yields the same list.  The program only ever sees the generated lists.
"""

from __future__ import annotations

import itertools
import random

#: keys are drawn from [-KEY_HALF, KEY_HALF): negative and positive ints
KEY_HALF = 1 << 40
#: records per distinct value in a ``few-distinct`` input
FEW_RECORDS_PER_VALUE = 20
#: Zipf exponent and the records-per-class ratio of a ``zipf`` input
ZIPF_S = 1.1
ZIPF_RECORDS_PER_CLASS = 10

KINDS = ("distinct", "dup-pair", "few-distinct", "zipf")


def rng_for(workload: str, seed: int, *parts) -> random.Random:
    """A private generator for one input; string seeds hash stably."""
    return random.Random(":".join(str(p) for p in (workload, seed, *parts)))


def _distinct(n: int, rng: random.Random) -> list[int]:
    return [k - KEY_HALF for k in rng.sample(range(2 * KEY_HALF), n)]


def make_keys(kind: str, n: int, rng: random.Random) -> list[int]:
    """``n`` int keys of one kind.

    * ``distinct`` — no key repeats.
    * ``dup-pair`` — distinct except for exactly one key present twice.
    * ``few-distinct`` — ``n / FEW_RECORDS_PER_VALUE`` values, each drawn
      uniformly, so a typical key repeats about twenty times.
    * ``zipf`` — ``n / ZIPF_RECORDS_PER_CLASS`` classes with Zipf(``ZIPF_S``)
      frequencies, so a few keys repeat thousands of times and most a few.
    """
    if kind == "distinct":
        return _distinct(n, rng)
    if kind == "dup-pair":
        keys = _distinct(n - 1, rng)
        keys.insert(rng.randrange(n), keys[rng.randrange(n - 1)])
        return keys
    if kind == "few-distinct":
        return rng.choices(_distinct(max(2, n // FEW_RECORDS_PER_VALUE), rng), k=n)
    if kind == "zipf":
        classes = max(2, n // ZIPF_RECORDS_PER_CLASS)
        cum = list(itertools.accumulate(1.0 / (r + 1) ** ZIPF_S for r in range(classes)))
        return rng.choices(_distinct(classes, rng), cum_weights=cum, k=n)
    raise ValueError(f"unknown input kind {kind!r}; choose from {KINDS}")


def repeated_share(keys: list) -> float:
    """Share of records whose key already occurred earlier in the list."""
    return 1.0 - len(set(keys)) / len(keys) if keys else 0.0
