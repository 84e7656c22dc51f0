"""Spans around the program's public calls, recorded from outside it.

The traced pass wraps each layer's public entry points for the duration
of one verified run and records a span per call: name, start, end,
parent span and run id.  Spans stay in memory until the benchmark writes
them out once at the end.  A layer's *self time* is its spans' duration
minus the part covered by child spans, so the self times of every span
under a root add up to the root's duration exactly; the root's own self
time is the wall no layer accounts for (``obs.unattributed_s``).

Nothing inside :mod:`repro` changes: functions are wrapped by rebinding
every attribute of the other ``repro.*`` modules that refers to them,
methods by replacing them on their class (and on every subclass that
overrides them), and all of it is undone when the pass leaves
:func:`wrapped`.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Any, Callable, Iterator

ROOT_SPAN = "verified_run"
"""The benchmark's own span around one whole verified run."""

#: Span name -> the public functions it times (module, attribute).
FUNCTIONS: tuple[tuple[str, str, str], ...] = (
    ("ap.reference", "repro.ap.sequential", "run_sequential"),
    ("core.ranges", "repro.core.ranges", "choose_partition_symbol"),
    ("core.ranges", "repro.core.ranges", "enumeration_range"),
    ("core.enumeration", "repro.core.enumeration", "build_units"),
    ("core.enumeration", "repro.core.merging", "pack_flows"),
    ("core.compose", "repro.core.composition", "compose_segment"),
)

#: Span name -> the public methods it times (module, class, method).
#: A method is wrapped on its class and on every subclass overriding it.
METHODS: tuple[tuple[str, str, str, str], ...] = (
    ("core.pap_init", "repro.core.pap", "ParallelAutomataProcessor", "__init__"),
    ("core.plan", "repro.core.pap", "ParallelAutomataProcessor", "plan"),
    ("core.run", "repro.core.pap", "ParallelAutomataProcessor", "run"),
    ("core.segment", "repro.core.scheduler", "SegmentScheduler", "run_segment"),
    ("exec.execute", "repro.exec.backend", "ExecutionBackend", "execute"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    """Index of the enclosing span in the recorder's list."""
    run: str


class SpanRecorder:
    """In-memory span store; ``run`` tags every span opened under it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = ""
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self.run))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = perf_counter()

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def of_run(self, run: str) -> list[tuple[int, Span]]:
        return [(i, s) for i, s in enumerate(self.spans) if s.run == run]

    def to_dict(self) -> dict:
        return {
            "clock": "time.perf_counter, seconds",
            "spans": [asdict(span) for span in self.spans],
        }


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


@contextmanager
def wrapped(recorder: SpanRecorder) -> Iterator[None]:
    """Wrap every call in :data:`FUNCTIONS` and :data:`METHODS`."""
    undo: list[tuple[Any, str, Any]] = []
    try:
        for name, module, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr)
            wrapper = recorder.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                # Calls inside the defining module are the layer's own
                # work (choose_partition_symbol sizes every symbol's
                # enumeration_range), not calls into it.
                if (
                    mod is None
                    or not mod_name.startswith("repro")
                    or mod_name == module
                ):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for name, module, cls_name, attr in METHODS:
            base = getattr(importlib.import_module(module), cls_name)
            for cls in _subclasses(base):
                if attr in cls.__dict__:
                    original = cls.__dict__[attr]
                    undo.append((cls, attr, original))
                    setattr(cls, attr, recorder.wrap(name, original))
        yield
    finally:
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)


def self_times(recorder: SpanRecorder, run: str) -> dict[str, float]:
    """Summed self time per span name over one run's spans."""
    spans = recorder.of_run(run)
    covered: dict[int, float] = defaultdict(float)
    for _, span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    out: dict[str, float] = defaultdict(float)
    for index, span in spans:
        out[span.name] += span.end - span.start - covered[index]
    return dict(out)


def inclusive_times(recorder: SpanRecorder, run: str) -> dict[str, float]:
    """Summed wall per span name over one run's outermost spans of it."""
    spans = recorder.of_run(run)
    names = {index: span.name for index, span in spans}
    out: dict[str, float] = defaultdict(float)
    for _, span in spans:
        if span.parent is None or names.get(span.parent) != span.name:
            out[span.name] += span.end - span.start
    return dict(out)
