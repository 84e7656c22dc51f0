"""Multi-stream flow tenancy.

Flows were built into the AP so that "multiple users [can] time
multiplex the AP for independent input streams" (Section 3.2) — PAP
repurposes them for enumeration, but the original multi-tenant use is
part of the machine and modeled here: N independent (job) streams share
one programmed FSM on one half-core, each job's context living in a
state-vector-cache slot, with the 3-cycle switch charged per slice.

:class:`MultiStreamScheduler` runs the jobs to completion round-robin
and reports per-job results plus the shared-half-core cycle accounting,
so the multiplexing overhead and fairness are measurable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.automata.anml import Automaton
from repro.automata.execution import (
    CompiledAutomaton,
    FlowExecution,
    Report,
)
from repro.ap.state_vector import StateVectorCache
from repro.ap.timing import DEFAULT_TIMING, TimingModel
from repro.errors import CapacityError, ConfigurationError


@dataclass
class StreamJob:
    """One tenant: an input stream scanned by the shared FSM."""

    job_id: int
    data: bytes
    position: int = 0
    reports: frozenset[Report] = frozenset()
    finish_cycles: int | None = None

    @property
    def done(self) -> bool:
        return self.position >= len(self.data)


@dataclass
class TenancyResult:
    """Outcome of a multi-tenant run."""

    jobs: tuple[StreamJob, ...]
    total_cycles: int
    switch_cycles: int
    symbol_cycles: int

    @property
    def multiplexing_overhead(self) -> float:
        if self.total_cycles == 0:
            return 0.0
        return self.switch_cycles / self.total_cycles

    def job(self, job_id: int) -> StreamJob:
        return self.jobs[job_id]


class MultiStreamScheduler:
    """Round-robin TDM of independent streams over one FSM."""

    def __init__(
        self,
        automaton: Automaton,
        *,
        slice_symbols: int = 256,
        timing: TimingModel = DEFAULT_TIMING,
        cache: StateVectorCache | None = None,
    ) -> None:
        if slice_symbols < 1:
            raise ConfigurationError("slice must be at least 1 symbol")
        automaton.validate()
        self.compiled = CompiledAutomaton(automaton)
        self.slice_symbols = slice_symbols
        self.timing = timing
        self.cache = cache or StateVectorCache()

    def run(self, streams: list[bytes]) -> TenancyResult:
        """Scan every stream to completion, time-multiplexed."""
        if len(streams) > self.cache.capacity:
            raise CapacityError(
                f"{len(streams)} tenants exceed the "
                f"{self.cache.capacity}-entry state vector cache"
            )
        jobs = [
            StreamJob(job_id=index, data=data)
            for index, data in enumerate(streams)
        ]
        flows = {
            job.job_id: FlowExecution(self.compiled) for job in jobs
        }
        for job in jobs:
            self.cache.save(job.job_id)

        time = 0
        switch_cycles = 0
        symbol_cycles = 0
        pending = [job for job in jobs if not job.done]
        for job in jobs:
            if job.done:  # empty stream
                job.finish_cycles = 0
                job.reports = frozenset()
        while pending:
            multiplexed = len(pending) > 1
            for job in list(pending):
                flow = flows[job.job_id]
                self.cache.restore(job.job_id)
                take = min(
                    self.slice_symbols, len(job.data) - job.position
                )
                flow.run(
                    job.data[job.position : job.position + take],
                    job.position,
                )
                job.position += take
                time += take
                symbol_cycles += take
                if multiplexed:
                    time += self.timing.context_switch_cycles
                    switch_cycles += self.timing.context_switch_cycles
                self.cache.save(job.job_id)
                if job.done:
                    job.finish_cycles = time
                    job.reports = frozenset(flow.reports)
                    self.cache.invalidate(job.job_id)
                    pending.remove(job)
        return TenancyResult(
            jobs=tuple(jobs),
            total_cycles=time,
            switch_cycles=switch_cycles,
            symbol_cycles=symbol_cycles,
        )
