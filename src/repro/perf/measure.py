"""Wall-clock measurement: warmup + repeats, summarized as median/MAD.

Cycle-domain numbers are deterministic, so one run suffices; host
wall-clock is not.  :func:`measure_wall` runs a callable ``warmup``
times unrecorded (JIT-warm caches, page in the trace), then ``repeats``
recorded times, and summarizes with the median and the median absolute
deviation — both robust to the one-off scheduling hiccups that make
mean/stddev useless on shared CI runners.  perfbench summarizes its
samples with :func:`summarize_samples`; the standalone speedup scripts
under ``benchmarks/`` time with :func:`measure_wall`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import median
from typing import Callable, TypeVar

T = TypeVar("T")


@dataclass(frozen=True)
class WallClockStats:
    """Robust summary of repeated wall-clock timings, in seconds."""

    median_s: float
    mad_s: float
    repeats: int
    warmup: int
    samples_s: tuple[float, ...] = ()


def summarize_samples(
    samples: list[float], *, warmup: int = 0
) -> WallClockStats:
    """Median/MAD summary of recorded samples (post-warmup)."""
    if not samples:
        raise ValueError("cannot summarize an empty sample list")
    center = median(samples)
    mad = median([abs(s - center) for s in samples])
    return WallClockStats(
        median_s=center,
        mad_s=mad,
        repeats=len(samples),
        warmup=warmup,
        samples_s=tuple(samples),
    )


def measure_wall(
    fn: Callable[[], T], *, warmup: int = 1, repeats: int = 3
) -> tuple[T, WallClockStats]:
    """Run ``fn`` with warmup, time ``repeats`` passes, keep the last
    result (all passes are deterministic replicas in this codebase)."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    for _ in range(warmup):
        fn()
    samples: list[float] = []
    result: T
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - start)
    return result, summarize_samples(samples, warmup=warmup)
