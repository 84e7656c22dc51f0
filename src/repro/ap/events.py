"""Output event buffer.

Reporting STEs write ``(report code, byte offset)`` entries into an
output event buffer that the host drains and parses (Section 2.1).  In
the PAP architecture each entry additionally carries the flow identifier
so the host can discard events generated along false enumeration paths
(Section 3.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.automata.execution import Report
from repro.obs.tracer import NULL_OBSERVER, Observer


@dataclass(frozen=True, order=True)
class OutputEvent:
    """One buffered report event, tagged with its producing flow."""

    offset: int
    report_code: int
    element: int
    flow_id: int

    def to_report(self) -> Report:
        return Report(offset=self.offset, element=self.element, code=self.report_code)


@dataclass
class OutputEventBuffer:
    """An unbounded-drain event buffer with raw-volume accounting.

    The hardware buffer is finite and can stall the AP when full; the
    paper's runs never hit that regime ("as long as its output buffers
    ... are not full" the AP sustains one symbol per cycle), so the
    model counts volume instead of stalling.  ``raw_events`` is the
    Figure 12 numerator: all events including false-path ones.
    """

    events: list[OutputEvent] = field(default_factory=list)
    raw_events: int = 0
    observer: Observer = NULL_OBSERVER
    track: str = "run"

    def push(self, report: Report, flow_id: int) -> None:
        self.events.append(
            OutputEvent(
                offset=report.offset,
                report_code=report.code,
                element=report.element,
                flow_id=flow_id,
            )
        )
        self.raw_events += 1

    def push_all(self, reports: list[Report], flow_id: int) -> None:
        for report in reports:
            self.push(report, flow_id)

    def drain(self) -> list[OutputEvent]:
        """Hand the buffered events to the host and clear the buffer."""
        drained, self.events = self.events, []
        if self.observer.enabled and drained:
            self.observer.instant(
                "buffer-drain",
                track=self.track,
                args={"events": len(drained)},
            )
        return drained

    def __len__(self) -> int:
        return len(self.events)
