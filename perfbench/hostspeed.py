"""Host speed, sampled while timed runs execute.

On a shared host the CPU's speed changes by up to 1.7x within seconds,
for every process alike (in CPU time as much as in wall), and a slow
phase can outlast a whole invocation.  Taking the fastest or the median
run then measures the host's phase, not the program.

So while a timed call runs, a timer interrupts it every
:data:`INTERVAL_S` and times a *probe*: a fixed pure-Python walk of a
small bit-set automaton, like the simulator's inner loop, on data that
fits in a few cache lines.  The probe runs in the benchmark's main
thread, so it sees the speed the program's own thread sees.  If the
probes of a call ran at ``speed_i = REFERENCE_S / probe_i``, the call
did ``wall * mean(speed_i)`` seconds of work at the reference speed,
and that is the scaled wall the benchmark reports.  The probe lives in
the benchmark, so a change to the program cannot move it; it costs
about 0.5% of each call.
"""

from __future__ import annotations

import signal
from statistics import fmean
from time import perf_counter
from typing import Any, Callable

REFERENCE_S = 1.0e-4
"""Probe time that defines the reference speed: about the probe's median
time during timed runs on the 2-vCPU host the benchmark was tuned on."""

INTERVAL_S = 0.025
"""Wall between two probes while a timed call runs."""

_STEPS = 150
_STATES = 16
_SUCCESSORS = tuple(
    tuple(
        (1 << ((state * 5 + symbol * 3 + 1) % _STATES))
        | (1 << ((state * 7 + symbol + 2) % _STATES))
        for symbol in range(4)
    )
    for state in range(_STATES)
)


def _walk() -> int:
    """Step the automaton over a pseudo-random input; returns the last
    active set.  Allocates nothing the garbage collector tracks."""
    active = 1
    x = 12_345
    for _ in range(_STEPS):
        x = (x * 1_103_515_245 + 12_345) & 0x7FFF_FFFF
        symbol = x & 3
        successors = 0
        remaining = active
        while remaining:
            low = remaining & -remaining
            successors |= _SUCCESSORS[low.bit_length() - 1][symbol]
            remaining ^= low
        active = successors if successors.bit_count() <= 6 else 1 << symbol
    return active


def probe() -> float:
    """Seconds one walk takes at the host's current speed."""
    start = perf_counter()
    _walk()
    return perf_counter() - start


class HostClock:
    """Times calls and scales each wall to the reference speed."""

    def __init__(self) -> None:
        self.probes: list[float] = []

    def time(self, call: Callable[[], Any]) -> tuple[Any, float, float]:
        """``(result, wall, scaled wall)`` of ``call()``.

        Must be called from the main thread, which receives the timer's
        signal.  A call too short for the timer is scaled by one probe
        taken right after it.
        """
        probes: list[float] = []
        previous = signal.signal(
            signal.SIGALRM, lambda signum, frame: probes.append(probe())
        )
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = perf_counter()
        try:
            result = call()
            wall = perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            if not probes:
                probes.append(probe())
            self.probes.extend(probes)
        speed = fmean(REFERENCE_S / seconds for seconds in probes)
        return result, wall, wall * speed
