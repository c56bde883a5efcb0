"""Child processes: sort servers, cold set-up probes and their teardown.

Every child carries the ``PERFBENCH_RUN`` environment marker.  A run
refuses to start while any marked process from an earlier run is alive
(it would hold one of the cores), and a :class:`Children` group kills and
reaps everything it spawned — from ``finally``, from ``atexit``, and, for a
benchmark killed outright, through the kernel's parent-death signal.
"""

from __future__ import annotations

import atexit
import ctypes
import os
import re
import selectors
import signal
import subprocess
import sys
import time

from .measure import vm_hwm_mb

MARKER = "PERFBENCH_RUN"
_BANNER = re.compile(r"serving sort jobs on ([\d.]+):(\d+)")
BANNER_TIMEOUT = 60.0
_PR_SET_PDEATHSIG = 1


def marked_processes() -> list[int]:
    """Pids (other than this one) whose environment carries the marker."""
    needle = MARKER.encode() + b"="
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as fh:
                env = fh.read()
        except OSError:
            continue
        if any(var.startswith(needle) for var in env.split(b"\0")):
            found.append(int(entry))
    return found


def _die_with_parent() -> None:  # pragma: no cover - runs in the child
    """Ask the kernel to SIGTERM this child when the benchmark dies."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)


class Children:
    """Owns every process the benchmark starts; :meth:`close` reaps them."""

    def __init__(self, src_dir: str):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = src_dir
        self.env[MARKER] = str(os.getpid())
        self.procs: list[subprocess.Popen] = []
        atexit.register(self.close)

    def popen(self, cmd: list[str]) -> subprocess.Popen:
        proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            text=True,
            env=self.env,
            preexec_fn=_die_with_parent,
        )
        self.procs.append(proc)
        return proc

    def read_line(self, proc: subprocess.Popen, timeout: float = BANNER_TIMEOUT) -> str:
        """The child's next stdout line; raises if none arrives in time."""
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout):
                raise RuntimeError(f"child {proc.args[:4]} printed nothing in {timeout}s")
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"child {proc.args[:4]} exited with {proc.wait()}")
        return line

    def spawn_servers(self, count: int, params, workers: int) -> list[tuple[str, int]]:
        """Start ``count`` ``repro serve`` processes at once; their addresses."""
        cmd = [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--executor", "thread", "--workers", str(workers),
            "--M", str(params.M), "--B", str(params.B), "--omega", str(params.omega),
        ]
        procs = [self.popen(cmd) for _ in range(count)]
        addresses = []
        for proc in procs:
            banner = self.read_line(proc)
            match = _BANNER.search(banner)
            if match is None:
                raise RuntimeError(f"unexpected server banner {banner.strip()!r}")
            addresses.append((match.group(1), int(match.group(2))))
        return addresses

    def probe(self, code: str) -> float:
        """Seconds from spawning ``python -c code`` to its first stdout line;
        the child is then reaped."""
        t0 = time.perf_counter()
        proc = self.popen([sys.executable, "-c", code])
        self.read_line(proc)
        elapsed = time.perf_counter() - t0
        self.stop(proc)
        return elapsed

    def live_rss_mb(self) -> float:
        """Summed peak RSS of the children still running."""
        return sum(vm_hwm_mb(p.pid) for p in self.procs if p.poll() is None)

    def stop(self, proc: subprocess.Popen) -> None:
        if proc.poll() is None:
            proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
        if proc in self.procs:
            self.procs.remove(proc)

    def stop_all(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in list(self.procs):
            self.stop(proc)

    def close(self) -> None:
        self.stop_all()
        atexit.unregister(self.close)
