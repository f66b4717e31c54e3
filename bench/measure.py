"""Child processes, summary statistics and provenance for the benchmark."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "bench"
CHILD_TIMEOUT_S = 60.0
# A p95 with 10-20 ops beyond it swung by ~0.1 of its value between runs,
# a p90 by ~0.03, and no run under a minute reaches the 1000 ops a p99 needs.
TAIL_PERCENTILES = (90.0, 75.0, 50.0)


def child_env() -> dict[str, str]:
    """The package is not installed: children find it through PYTHONPATH=src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str], stdout, stderr) -> tuple[int, float, float]:
    """Run one fresh interpreter; return (exit code, wall s, peak RSS MB of that child)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], stdout=stdout, stderr=stderr, env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


# The host's speed drifts by up to ~1.7x over seconds to minutes, and not by
# the same factor for every kind of work.  Before each timed op the benchmark
# times fixed reference jobs that never touch rnlsim and resemble the op's
# kind of work, and converts the op's wall to the host speed at which those
# jobs take their nominal walls: converted = wall * nominal / reference wall.
_CUMULATIVE = np.array([0.25, 0.5, 0.75, 1.0])


def _numpy_job() -> None:
    """10^6 Philox draws binned over four outcomes, in 1 MB batches, like sample_counts."""
    rng = np.random.Generator(np.random.Philox(12345))
    for _ in range(8):
        np.bincount(np.searchsorted(_CUMULATIVE, rng.random(125_000), side="right"), minlength=5)


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


def _python_job() -> None:
    """Small frozen dataclasses, math calls, dict stores and a keyed sort, like the sweep."""
    latest = {}
    for i in range(20_000):
        point = _Point(i * 0.001, -i * 0.002)
        latest[i % 997] = (point, math.sin(point.x) * math.cos(point.y), str(i))
    sorted(latest.values(), key=lambda item: item[0].x)


# name -> (job, nominal wall in s: about its wall on the machine in NOTES.md when that runs fast)
REFERENCE_JOBS = {"numpy": (_numpy_job, 0.035), "python": (_python_job, 0.038)}


def reference_wall(jobs: tuple[str, ...]) -> float:
    start = time.perf_counter()
    for name in jobs:
        REFERENCE_JOBS[name][0]()
    return time.perf_counter() - start


def reference_s(jobs: tuple[str, ...]) -> float:
    return sum(REFERENCE_JOBS[name][1] for name in jobs)


def at_reference_speed(wall: float, reference: float, jobs: tuple[str, ...]) -> float:
    return wall * reference_s(jobs) / reference


class SetupSampler:
    """`import rnlsim` in fresh interpreters, sampled between ops across the run.

    Called after each op, it takes a sample when `every_s` has passed since
    the last one, so that the samples see the whole run and not one moment
    of it.  Each sample follows its own run of the reference jobs.
    """

    def __init__(self, jobs: tuple[str, ...], every_s: float) -> None:
        self.jobs, self.every_s = jobs, every_s
        self.walls: list[float] = []
        self.references: list[float] = []
        self.due = time.perf_counter() + every_s

    def sample(self, keep: bool = True) -> None:
        reference = reference_wall(self.jobs)
        code, wall, _ = run_child(["-c", "import rnlsim"], subprocess.DEVNULL, subprocess.DEVNULL)
        if code != 0:
            raise RuntimeError("import rnlsim failed in a fresh interpreter")
        if keep:
            self.walls.append(wall)
            self.references.append(reference)
        self.due = time.perf_counter() + self.every_s

    def __call__(self) -> None:
        if time.perf_counter() >= self.due:
            self.sample()

    def converted(self) -> list[float]:
        return [at_reference_speed(w, r, self.jobs) for w, r in zip(self.walls, self.references)]


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$")


def import_breakdown(repeats: int) -> tuple[list[float], list[float]]:
    """Per fresh interpreter: numpy's cumulative import time and rnlsim's own share.

    rnlsim's own share is its cumulative import time minus numpy's, both
    read from `python -X importtime`.
    """
    numpy_s, self_s = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import rnlsim"],
            capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            match = _IMPORTTIME.match(line)
            if match:
                cumulative[match.group(3)] = int(match.group(2)) / 1e6
        numpy_s.append(cumulative["numpy"])
        self_s.append(cumulative["rnlsim"] - cumulative["numpy"])
    return numpy_s, self_s


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it): the highest percentile with >= 10 beyond.

    With fewer than 20 samples not even the median has ten beyond it; the
    median is then reported as the tail, with percentile 50.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(round(pct * n / 100.0, 9))  # nearest rank, free of float dust
        if n - rank >= 10:
            return ordered[rank - 1], pct, n - rank
    return statistics.median(ordered), 50.0, n // 2


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _l3_size() -> str | None:
    for index in range(8):
        base = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}")
        try:
            if (base / "level").read_text().strip() == "3":
                return (base / "size").read_text().strip()
        except OSError:
            return None
    return None


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _src_digest() -> str:
    """sha256 over src/**/*.py, which names the measured code where git cannot."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, seed: int, traced: bool) -> dict[str, object]:
    return {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l3_cache": _l3_size(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
    }
