"""Tests of the benchmark itself: inputs, failure counting, determinism and
process hygiene (no sort server outlives a run, even an aborted one)."""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

from perfbench.inputs import make_keys, repeated_share, rng_for
from perfbench.measure import NullTracer, Op, error_name, tail
from perfbench.procs import MARKER, marked_processes
from perfbench.workloads import _timed
from repro.service.server import ServiceError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def _bench(*args, **kwargs):
    return subprocess.run(RUN + list(args), cwd=kwargs.pop("cwd", ROOT), text=True,
                          capture_output=True, timeout=300, **kwargs)


def _detail(stdout: str) -> dict:
    lines = [ln for ln in stdout.splitlines() if ln.startswith('{"detail"')]
    return json.loads(lines[-1])["detail"]


def _wait_until(predicate, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.1)
    return predicate()


def _serving() -> list[int]:
    pids = []
    for pid in marked_processes():
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                if b"serve" in fh.read():
                    pids.append(pid)
        except OSError:
            continue
    return pids


@pytest.fixture(autouse=True)
def _no_leftovers():
    assert marked_processes() == [], "a child of an earlier run is alive"
    yield
    assert _wait_until(lambda: not marked_processes(), 15), marked_processes()


# ---------------------------------------------------------------------- #
def test_inputs_repeat_keys_as_stated():
    n = 4000
    keys = {kind: make_keys(kind, n, rng_for("t", 1, kind))
            for kind in ("distinct", "dup-pair", "few-distinct", "zipf")}
    assert repeated_share(keys["distinct"]) == 0
    assert len(keys["dup-pair"]) - len(set(keys["dup-pair"])) == 1
    assert repeated_share(keys["few-distinct"]) > 0.9
    assert repeated_share(keys["zipf"]) > 0.5
    assert all(len(v) == n for v in keys.values())
    assert make_keys("zipf", n, rng_for("t", 1, "zipf")) == keys["zipf"]
    assert make_keys("zipf", n, rng_for("t", 2, "zipf")) != keys["zipf"]


def test_failures_are_counted_by_type_and_the_loop_goes_on():
    op = Op(records=3)

    def boom():
        raise KeyError("duplicate insert")

    done, result = _timed(op, NullTracer(), "x", boom)
    assert (done, result, op.ok, op.error) == (False, None, False, "KeyError")
    remote = ServiceError("maximum recursion depth exceeded", {"kind": "RecursionError"})
    assert error_name(remote) == "ServiceError.RecursionError"


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tail(list(range(400)))[0] == 95.0
    assert tail(list(range(26)))[:1] == (50.0,)
    p, _value, beyond = tail(list(range(16)))
    assert (p, beyond) == (50.0, 8)  # too few samples: the median stands in


@pytest.mark.parametrize("workload", ["cluster-scatter", "stream-updates"])
def test_same_seed_gives_identical_exact_counts(workload):
    first, second = (_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                            "--trace", "0") for _ in range(2))
    assert first.returncode == second.returncode == 0, first.stderr + second.stderr
    a, b = _detail(first.stdout), _detail(second.stdout)
    assert a["exact"] == b["exact"]
    assert a["probes"] == b["probes"]
    result = json.loads(first.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert _serving() == []


def test_refuses_to_start_while_a_child_of_an_earlier_run_is_alive():
    env = dict(os.environ, **{MARKER: "stale"})
    stale = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"], env=env)
    try:
        assert _wait_until(lambda: stale.pid in marked_processes(), 10)
        out = _bench("--workload", "engine-bulk", "--seed", "1", "--seconds", "1")
        assert out.returncode == 3
        assert out.stdout == ""
    finally:
        stale.kill()
        stale.wait(timeout=10)


@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGINT, signal.SIGKILL])
def test_aborted_run_leaves_no_server(sig):
    proc = subprocess.Popen(
        RUN + ["--workload", "cluster-scatter", "--seed", "3", "--seconds", "30"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        assert _wait_until(lambda: len(_serving()) >= 2, 120)
        time.sleep(2.0)
        proc.send_signal(sig)
        proc.wait(timeout=60)
        assert proc.returncode != 0
        assert _wait_until(lambda: not _serving(), 15), _serving()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def test_exits_nonzero_without_a_result_outside_a_full_checkout(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = _bench("--workload", "engine-bulk", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
