"""Shared plumbing for the perfbench workloads: results, stats, resources.

Every workload returns a :class:`Result`; ``run.py`` turns it into the
one-line JSON verdict.  Timings are medians of repeated samples, latency
tails use the highest percentile that still has ten samples beyond it,
and resources are read from the kernel (``getrusage`` / ``/proc``), never
estimated.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

#: Root of the checkout the benchmark runs in (parent of ``perfbench/``).
REPO_ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for stores and registries; removed when a run ends.
WORK_ROOT = REPO_ROOT / "perfbench" / "_work"
#: The flight-recorder history the untraced runs append to.
HISTORY_PATH = REPO_ROOT / "perfbench" / "_history" / "history.jsonl"

#: Samples a tail percentile must leave beyond it (so p99 needs 1000).
TAIL_SAMPLES = 10


@dataclass
class Result:
    """What one workload run measured and checked."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    notes: dict[str, object] = field(default_factory=dict)
    #: Figures kept in the flight-recorder history besides the metrics.
    recorded: dict[str, float] = field(default_factory=dict)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; a mismatch is a failed one."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail_quantile(n: int, cap: float = 0.99) -> float:
    """Highest quantile <= ``cap`` with ``TAIL_SAMPLES`` samples beyond it."""
    if n <= TAIL_SAMPLES:
        return 1.0
    return min(cap, 1.0 - TAIL_SAMPLES / n)


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def work_dir(name: str) -> Path:
    """A fresh, empty scratch directory for this process."""
    path = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def drop_work_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass  # another run still owns a directory there


def log(message: str) -> None:
    """Progress lines go to stderr so the verdict stays the last stdout line."""
    print(message, file=sys.stderr, flush=True)
