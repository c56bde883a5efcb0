"""Calibrated leading constants for the planner's predicted bounds.

The closed forms in :mod:`~repro.planner.cost_model` carry unit leading
constants — correct asymptotics, but a ranking artifact: sample sort's
``k ceil(n/B) L`` read bound dominates mergesort's ``(k+1) ceil(n/B) L`` by
construction, so mergesort can never win a unit-constant comparison no matter
how this *implementation* actually behaves.

This module closes that gap.  It measures the real sorts on a calibration
workload, fits one multiplicative constant per ``(family, currency)`` by
least squares through the origin

    c  =  argmin_c  sum_i (measured_i - c * predicted_i)^2
       =  sum_i measured_i * predicted_i / sum_i predicted_i^2,

and packages the result as an immutable :class:`CostConstants` that
:func:`~repro.planner.cost_model.predict_candidate` (and everything above it:
``rank_plans`` / ``plan_sort`` / ``SortEngine.sort`` / ``SortEngine.batch``)
accepts via the optional ``constants=`` parameter.  Unlisted families fall back to the
unit constant, so a partially-fitted table is always safe to use.

``CostConstants`` is hashable (a frozen tuple of entries), which lets it
participate in :class:`~repro.planner.plan_cache.PlanCache` keys, and it
round-trips through JSON for the ``python -m repro calibrate --save`` /
``plan --constants`` workflow.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass

from ..models.params import MachineParams
from .cost_model import PlanCandidate, predict_candidate, rank_plans

#: families fitted by default: the four external sorts of §4 (the ``ram``
#: plan's transfer count is exactly ``ceil(n/B)`` each way — constant 1 by
#: construction, nothing to fit)
CALIBRATABLE_ALGORITHMS = ("selection", "samplesort", "mergesort", "heapsort")

#: default calibration workload sizes — spans ~2-4 recursion levels on the
#: small test machines without making `python -m repro calibrate` slow
DEFAULT_SIZES = (512, 2048, 8192)


@dataclass(frozen=True)
class CostConstants:
    """Per-family multiplicative constants for predicted reads and writes.

    ``entries`` is a sorted tuple of ``(family, read_constant,
    write_constant)`` rows; families not listed use 1.0 (the unit-constant
    theory form).  Frozen + tuple-backed so instances are hashable and can
    key a :class:`~repro.planner.plan_cache.PlanCache`.
    """

    entries: tuple[tuple[str, float, float], ...] = ()

    @classmethod
    def from_mapping(cls, mapping: dict) -> "CostConstants":
        """Build from ``{family: (read_constant, write_constant)}``."""
        rows = []
        for family, (cr, cw) in sorted(mapping.items()):
            if cr <= 0 or cw <= 0:
                raise ValueError(
                    f"constants must be positive, got {family}: ({cr}, {cw})"
                )
            rows.append((family, float(cr), float(cw)))
        return cls(entries=tuple(rows))

    def as_mapping(self) -> dict[str, tuple[float, float]]:
        return {family: (cr, cw) for family, cr, cw in self.entries}

    def families(self) -> tuple[str, ...]:
        return tuple(family for family, _, _ in self.entries)

    def read_constant(self, family: str) -> float:
        for name, cr, _ in self.entries:
            if name == family:
                return cr
        return 1.0

    def write_constant(self, family: str) -> float:
        for name, _, cw in self.entries:
            if name == family:
                return cw
        return 1.0

    # ------------------------------------------------------------------ #
    # JSON round-trip (the ``calibrate --save`` / ``plan --constants`` path)
    # ------------------------------------------------------------------ #
    def to_json(self) -> str:
        return json.dumps(
            {family: [cr, cw] for family, cr, cw in self.entries},
            indent=2,
            sort_keys=True,
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "CostConstants":
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        return cls.from_mapping({k: (v[0], v[1]) for k, v in raw.items()})


#: the unit-constant table (pure theory); ``constants=None`` means the same
UNIT_CONSTANTS = CostConstants()


@dataclass(frozen=True)
class CalibrationSample:
    """One measured run paired with its unit-constant prediction."""

    family: str
    n: int
    k: int | None
    measured_reads: int
    measured_writes: int
    predicted_reads: float
    predicted_writes: float

    def measured_cost(self, omega: float) -> float:
        return self.measured_reads + omega * self.measured_writes

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "k": self.k,
            "measured_reads": self.measured_reads,
            "measured_writes": self.measured_writes,
            "predicted_reads": self.predicted_reads,
            "predicted_writes": self.predicted_writes,
        }


def measure_samples(
    params: MachineParams,
    sizes: Sequence[int] = DEFAULT_SIZES,
    algorithms: Sequence[str] = CALIBRATABLE_ALGORITHMS,
    scenario: str = "uniform",
    seed: int = 0,
) -> list[CalibrationSample]:
    """Run every algorithm over the calibration workload and record measured
    vs unit-predicted block counts.

    Each algorithm runs at the branching factor the unit-constant planner
    would pick for it (so the fit calibrates exactly the candidates the
    ranking compares).  An algorithm that is infeasible on ``params``
    (degenerate merge fanout) is skipped rather than failing the sweep.
    """
    from ..engine import SortEngine
    from ..workloads import calibration_suite

    engine = SortEngine(params)  # one engine across the whole sweep
    samples: list[CalibrationSample] = []
    for n, data in calibration_suite(sizes, scenario=scenario, seed=seed):
        for algorithm in algorithms:
            try:
                cand = predict_candidate(algorithm, n, params)
            except ValueError:
                continue  # infeasible on this machine (e.g. M = B)
            rep = engine.sort(data, algorithm=algorithm, k=cand.k)
            samples.append(
                CalibrationSample(
                    family=rep.family,
                    n=n,
                    k=cand.k,
                    measured_reads=rep.reads,
                    measured_writes=rep.writes,
                    predicted_reads=cand.predicted_reads,
                    predicted_writes=cand.predicted_writes,
                )
            )
    return samples


def fit_constants(samples: Sequence[CalibrationSample]) -> CostConstants:
    """Least-squares-through-origin fit of one ``(read, write)`` constant pair
    per family present in ``samples``.

    A family whose predictions are all zero (empty inputs only) keeps the
    unit constant — there is nothing to fit.
    """
    by_family: dict[str, list[CalibrationSample]] = {}
    for s in samples:
        by_family.setdefault(s.family, []).append(s)

    mapping: dict[str, tuple[float, float]] = {}
    for family, group in by_family.items():
        cr = ls_through_origin(
            [(s.measured_reads, s.predicted_reads) for s in group]
        )
        cw = ls_through_origin(
            [(s.measured_writes, s.predicted_writes) for s in group]
        )
        mapping[family] = (cr, cw)
    return CostConstants.from_mapping(mapping)


def ls_through_origin(pairs: Sequence[tuple[float, float]]) -> float:
    """``argmin_c sum (m - c p)^2`` over ``(measured, predicted)`` pairs.

    Degenerate inputs (all-zero predictions, or a non-positive cross term)
    keep the unit constant — there is nothing to fit.  Public because the
    cost certifier (:mod:`repro.analysis.boundcheck`) fits its per-machine
    envelope constants with exactly this estimator.
    """
    num = sum(m * p for m, p in pairs)
    den = sum(p * p for _, p in pairs)
    if den == 0 or num <= 0:
        return 1.0
    return num / den


def calibrate(
    params: MachineParams,
    sizes: Sequence[int] = DEFAULT_SIZES,
    algorithms: Sequence[str] = CALIBRATABLE_ALGORITHMS,
    scenario: str = "uniform",
    seed: int = 0,
) -> CostConstants:
    """Measure + fit in one call: the ``python -m repro calibrate`` core."""
    return fit_constants(
        measure_samples(params, sizes=sizes, algorithms=algorithms, scenario=scenario, seed=seed)
    )


@dataclass(frozen=True)
class RankingComparison:
    """Predicted (calibrated) vs measured ranking at one probe size."""

    ranked: tuple[PlanCandidate, ...]
    predicted_order: tuple[str, ...]
    measured_order: tuple[str, ...]
    #: measured asymmetric cost per algorithm, at the planned ``k``
    measured_costs: dict

    @property
    def agree(self) -> bool:
        return self.predicted_order == self.measured_order


def compare_rankings(
    params: MachineParams,
    constants: CostConstants | None,
    probe: int,
    algorithms: Sequence[str] = CALIBRATABLE_ALGORITHMS,
    scenario: str = "uniform",
    seed: int = 0,
) -> RankingComparison:
    """Rank ``algorithms`` at ``probe`` under ``constants``, execute every
    candidate at its planned ``k`` on one probe input, and report whether the
    predicted order matches the measured-cost order.

    The single source of truth for the ``calibrate`` CLI's agreement table
    and the CI benchmark's agreement assertion.
    """
    from ..engine import SortEngine
    from ..workloads import make_scenario

    ranked = tuple(
        rank_plans(probe, params, algorithms=tuple(algorithms), constants=constants)
    )
    engine = SortEngine(params)
    data = make_scenario(scenario, probe, seed=seed)
    measured = {}
    for cand in ranked:
        rep = engine.sort(data, algorithm=cand.algorithm, k=cand.k)
        measured[cand.algorithm] = rep.cost()
    return RankingComparison(
        ranked=ranked,
        predicted_order=tuple(c.algorithm for c in ranked),
        measured_order=tuple(sorted(measured, key=measured.get)),
        measured_costs=measured,
    )
