"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still distinguishing the broad failure families below.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the repro library."""


class AutomatonError(ReproError):
    """A malformed automaton: dangling edges, bad labels, invalid ids."""


class RegexSyntaxError(ReproError):
    """The regex parser rejected the pattern.

    Attributes
    ----------
    pattern:
        The offending pattern text.
    position:
        0-based index into ``pattern`` where parsing failed.
    """

    def __init__(self, message: str, pattern: str, position: int) -> None:
        super().__init__(f"{message} (pattern={pattern!r}, position={position})")
        self.pattern = pattern
        self.position = position


class CapacityError(ReproError):
    """An automaton or flow set exceeds the modeled AP hardware capacity."""


class PlacementError(ReproError):
    """An automaton could not be placed onto the available half-cores."""


class ConfigurationError(ReproError):
    """Invalid user-supplied configuration values."""


class LintError(ReproError):
    """Static analysis refused an automaton or deployment.

    Raised by the pre-deployment lint gate when error-level diagnostics
    are present.  ``report`` carries the full
    :class:`repro.lint.LintReport` so callers can render or inspect the
    individual diagnostics.
    """

    def __init__(self, message: str, report: object | None = None) -> None:
        super().__init__(message)
        self.report = report


class ExecutionError(ReproError):
    """Runtime failure of the functional automata executor."""


class TransientSegmentError(ExecutionError):
    """A transient, retryable failure of one segment's execution.

    Raised for failures that a bit-exact re-execution is expected to
    clear: injected transient faults, SVC slot exhaustion, FIV-write
    failures.  ``kind`` names the failure family (see
    :mod:`repro.exec.faults`); ``segment`` is the failing segment index.
    The custom ``__reduce__`` keeps both attributes intact across the
    process-pool pickle boundary.
    """

    def __init__(
        self, message: str, *, kind: str = "transient", segment: int = -1
    ) -> None:
        super().__init__(message)
        self.kind = kind
        self.segment = segment

    def __reduce__(self):  # type: ignore[override]
        return (
            self.__class__,
            (self.args[0],),
            {"kind": self.kind, "segment": self.segment},
        )


class SegmentTimeoutError(ExecutionError):
    """A segment's dispatch exceeded the per-segment timeout (retryable)."""


class WorkerCrashError(ExecutionError):
    """A worker process died while executing a segment (retryable).

    On the process backend this wraps ``BrokenProcessPool``; the serial
    backend raises it inline to *model* a crash under fault injection.
    """


#: Failure families the recovery policy may re-execute: the segment's
#: cycle-domain outcome is deterministic, so a retry is bit-exact and
#: recovery is verifiable (the AP's deterministic cycle model).
RETRYABLE_ERRORS = (TransientSegmentError, SegmentTimeoutError, WorkerCrashError)


class CheckpointError(ReproError):
    """A checkpoint store path is unusable (e.g. the directory is a
    file).  Corrupted or torn checkpoint *records* never raise — the
    store drops them and the affected segments re-execute."""


class ArtifactError(ReproError):
    """A benchmark artifact (``BENCH_*.json``) is missing, malformed,
    or carries an unsupported schema version."""


class CompositionError(ReproError):
    """Segment results could not be composed into a final answer."""
