"""Known-defect probes: duplicate-key inputs today's program rejects.

The timed loops only send inputs the program sorts today, so that their
timings measure work rather than error paths.  These probes keep the
duplicate-key defect in view: every run sends the same seeded inputs,
after the timed loop, and prints each outcome and the failures by
exception type.  A probe is never dropped or re-seeded when it fails; the
day it sorts correctly, its line reads ``ok``.
"""

from __future__ import annotations

import collections

from .inputs import make_keys, rng_for
from .measure import error_name

#: (label, input kind, records, algorithm) sent through ``SortEngine.sort``
ENGINE_PROBES = (
    ("heapsort/dup-pair", "dup-pair", 5_000, "heapsort"),
    ("auto/dup-pair/n<=M", "dup-pair", 200, "auto"),
    ("mergesort/zipf", "zipf", 5_000, "mergesort"),
    ("auto/zipf", "zipf", 20_000, "auto"),
)
#: (label, input kind, records) sent as one job through a server
WIRE_PROBE = ("wire/auto/zipf", "zipf", 20_000)
#: (label, input kind, records) scattered over the cluster
CLUSTER_PROBE = ("cluster/zipf", "zipf", 40_000)


def probe_input(label: str, kind: str, n: int, seed: int) -> list[int]:
    return make_keys(kind, n, rng_for("probe", seed, label))


def _outcome(call, data) -> str:
    try:
        output = call(data)
    except Exception as exc:  # noqa: BLE001 — the failure is the finding
        return error_name(exc)
    return "ok" if output == sorted(data) else "WrongOutput"


def run_probes(seed: int, engine, client=None, coordinator=None) -> dict[str, str]:
    """Outcome per probe label: ``ok``, ``WrongOutput`` or the exception."""
    outcomes = {}
    for label, kind, n, alg in ENGINE_PROBES:
        outcomes[label] = _outcome(lambda d, alg=alg: engine.sort(d, alg).output,
                                   probe_input(label, kind, n, seed))
    if client is not None:
        label, kind, n = WIRE_PROBE
        outcomes[label] = _outcome(client.sort, probe_input(label, kind, n, seed))
    if coordinator is not None:
        label, kind, n = CLUSTER_PROBE
        outcomes[label] = _outcome(lambda d: coordinator.sort(d).output,
                                   probe_input(label, kind, n, seed))
    return outcomes


def failed_by_type(outcomes: dict[str, str]) -> dict[str, int]:
    return dict(sorted(collections.Counter(v for v in outcomes.values() if v != "ok").items()))
