"""Shared fixtures for the repro test suite.

``--iosan`` / ``--locksan`` run the whole session under the runtime
sanitizers (equivalent to ``REPRO_IOSAN=1`` / ``REPRO_LOCKSAN=1`` in the
environment, which is what CI uses so the setting reaches spawned worker
processes too).
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.models import AEMachine, CacheSim, CostCounter, MachineParams

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def pytest_addoption(parser):
    parser.addoption("--iosan", action="store_true", default=False,
                     help="enable the uncharged-I/O runtime sanitizer")
    parser.addoption("--locksan", action="store_true", default=False,
                     help="enable the lock-order recorder")


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: a long-running test")
    if config.getoption("--iosan"):
        from repro.analysis import iosan

        iosan.enable()
    if config.getoption("--locksan"):
        from repro.analysis import locksan

        locksan.enable()


@pytest.fixture
def params() -> MachineParams:
    """The workhorse machine: M=64 records, B=8, omega=8."""
    return MachineParams(M=64, B=8, omega=8)


@pytest.fixture
def tiny_params() -> MachineParams:
    """A deliberately cramped machine to stress block boundaries."""
    return MachineParams(M=16, B=4, omega=4)


@pytest.fixture
def machine(params) -> AEMachine:
    return AEMachine(params)


@pytest.fixture
def cache(params) -> CacheSim:
    return CacheSim(params, policy="lru")


@pytest.fixture
def counter() -> CostCounter:
    return CostCounter()


@dataclasses.dataclass(frozen=True)
class RealTree:
    """The real tree's lint context with its one project-wide analysis."""

    ctx: object  # repro.analysis.reprolint.LintContext
    index: object  # repro.analysis.flow.ProjectIndex
    lockset: object  # repro.analysis.flow.LocksetResult


@pytest.fixture(scope="session")
def real_tree() -> RealTree:
    """Index and lockset-analyze ``src/repro`` once per session.  ``ctx``
    memoizes every project-wide result, so linting real files through it
    reuses this analysis instead of rebuilding it."""
    from repro.analysis.lint_rules import flow_index, flow_lockset_result
    from repro.analysis.reprolint import LintContext

    ctx = LintContext(REPO)
    return RealTree(ctx, flow_index(ctx), flow_lockset_result(ctx))
