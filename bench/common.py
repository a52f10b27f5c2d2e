"""Helpers shared by the benchmark's modules: seeds, operation tally, statistics."""

from __future__ import annotations

import os
import platform
import statistics
import sys
import zlib
from pathlib import Path

import numpy as np


def derive_seed(seed: int, *labels) -> int:
    """A 63-bit seed for one named input, derived from the workload seed.

    The library only ever sees derived seeds and generated arrays, never the
    workload seed itself, so two inputs never share a stream by accident.
    """
    words = [seed] + [zlib.crc32(str(label).encode()) for label in labels]
    return int(np.random.SeedSequence(words).generate_state(1, np.uint64)[0] >> 1)


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def done(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"FAILED: {reason}", file=sys.stderr)

    def check(self, ok: bool, reason: str) -> None:
        """One output check; a false ``ok`` is a failed operation."""
        if ok:
            self.done()
        else:
            self.fail(reason)

    def cli(self, rc: int, argv: list[str]) -> None:
        self.check(rc == 0, f"attnlab {' '.join(argv)} exited {rc}")


def median(values) -> float:
    """The median of a run's samples of one timing: what end-to-end times report.

    Every timing is taken in many samples spread evenly over the run
    (README.md, "Why the median of many samples").
    """
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def max_abs_diff(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def environment(seed: int, blas_threads: int) -> dict:
    """What a result depends on besides the code: recorded with every run."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    caches = _cache_sizes()
    return {
        "seed": seed,
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
    }
