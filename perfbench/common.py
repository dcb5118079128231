"""Shared plumbing for the benchmark workloads.

Statistics, the CPU-speed probe, the scratch directory, run metadata and
the exact-count signature store all live here so that each workload file
only says what it loads, what it times and what it checks.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

#: Root of the checkout: the benchmark lives in ``<root>/perfbench``.
ROOT = Path(__file__).resolve().parent.parent

#: Everything a run writes goes under this directory inside the checkout.
WORK_ROOT = ROOT / ".perfbench_work"

#: The NoBench collection both workloads load.
TABLE = "nobench_main"

#: Engine knobs read from the environment.  They are cleared so that a
#: stray setting in the caller's shell cannot change the lane, the worker
#: count, the data scale or switch on the latch-order tracker; the
#: benchmark measures the engine's defaults.
CLEARED_ENV = (
    "REPRO_SCALE",
    "REPRO_EXECUTOR_LANE",
    "REPRO_PARALLEL_WORKERS",
    "REPRO_DEBUG_LATCHES",
)

#: Workload of the CPU probe: a fixed pure-Python loop.
_PROBE_ITERATIONS = 200_000


def clean_environment() -> None:
    for name in CLEARED_ENV:
        os.environ.pop(name, None)


class DeviceFlushes:
    """Replaces ``os.fsync`` with a counting no-op for this process.

    The benchmark may write only inside its checkout, which sits on a
    shared disk whose flush latency swings widely from run to run (on a
    2-CPU virtual machine an 8,000-document set-up took 13 to 22 s there,
    and 7.6 s with the same directory on tmpfs).  The engine's flush policy is unchanged --
    it still calls fsync after every commit, and ``wal.fsyncs`` counts
    those calls -- but the device wait is taken out, as on a
    memory-backed filesystem.  Data still reaches the OS page cache.
    """

    def __init__(self) -> None:
        self.calls = 0

    def install(self) -> None:
        def fsync(fd) -> None:
            os.fstat(fd)  # still reject a closed or invalid descriptor
            self.calls += 1

        os.fsync = fsync


def cpu_probe_ms() -> float:
    """Median time of a fixed pure-Python loop, in milliseconds.

    Recorded before and after each run as metadata, not as a metric: it
    lets the evidence tell a slower machine from a slower program.
    """
    samples = []
    for _ in range(7):
        started = time.perf_counter()
        total = 0
        for i in range(_PROBE_ITERATIONS):
            total += i * i % 7
        samples.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(samples)


def effective_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_point(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n_samples)``: the value is the
    eleventh-largest sample, so exactly ten samples lie above it.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[0], 0.0, n
    index = n - 11
    return ordered[index], 100.0 * (index + 1) / n, n


def json_bytes(documents) -> int:
    """User bytes of a document set: its compact JSON encoding."""
    return sum(
        len(json.dumps(document, separators=(",", ":")).encode()) for document in documents
    )


class WorkDir:
    """A per-run scratch directory inside the checkout, removed at exit."""

    def __init__(self, workload: str):
        self.path = WORK_ROOT / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        self._count = 0

    def fresh(self, stem: str) -> Path:
        self._count += 1
        return self.path / f"{stem}-{self._count}"

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run's directory is still there


def program_digest() -> str:
    """Hash of the engine sources and the benchmark: identifies the program."""
    digest = hashlib.sha256()
    for base in (ROOT / "src" / "repro", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_exact_counts(workload: str, seed: int, signature: dict) -> str | None:
    """Compare this run's exact counts with earlier runs of the same seed.

    The counts of a single-client run repeat exactly for one seed and one
    program; a mismatch means two different programs were measured.  The
    store is keyed by the program digest so a changed program starts a
    fresh record.  Returns a description of the mismatch, or None.
    """
    store = ROOT / ".perfbench_state" / "exact_counts.json"
    key = f"{program_digest()}:{workload}:{seed}"
    try:
        known = json.loads(store.read_text())
    except (OSError, ValueError):
        known = {}
    previous = known.get(key)
    if previous is not None:
        if previous != signature:
            return f"exact counts differ from an earlier run: {previous} != {signature}"
        return None
    known[key] = signature
    store.parent.mkdir(exist_ok=True)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, sort_keys=True))
    tmp.replace(store)
    return None


def run_metadata(seed: int, workload: str) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "effective_cpus": effective_cpus(),
        "argv": sys.argv[1:],
    }


#: name -> unit of every end-to-end metric, in report order.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
    "settle_s": "s",
    "stored_bytes_per_user_byte": "ratio",
    "wal_bytes_per_user_byte": "ratio",
}


class Outcome:
    """What one workload run hands back to ``run.py``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        #: failures of the benchmark's own checks (not op failures)
        self.errors: list[str] = []
        self.metrics: dict[str, float] = {}
        self.meta: dict = {}
        self.layers = None

    def timed(self, latencies_ms: list[float], elapsed_s: float) -> None:
        """End-to-end figures of a closed-loop timed phase."""
        tail, percentile, n = tail_point(latencies_ms)
        self.metrics["ops_per_s"] = len(latencies_ms) / elapsed_s
        self.metrics["latency_ms_p50"] = statistics.median(latencies_ms)
        self.metrics["latency_ms_tail"] = tail
        self.meta["tail"] = {"percentile": round(percentile, 2), "samples": n}
        self.meta["timed_s"] = elapsed_s
