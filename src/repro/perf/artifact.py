"""Versioned benchmark artifacts (``BENCH_*.json``).

A :class:`PerfReport` is the machine-readable sibling of the text
tables under ``benchmarks/results/``: one record per benchmark run,
holding two blocks —

``cycles``
    Symbol-cycle fidelity metrics (total cycles, speedup, flow
    dynamics, switching/decode overheads, SVC traffic, event
    amplification).  Deterministic given the same configuration and
    seeds, so comparisons are exact.

``telemetry``
    Per-segment quantile summaries, carried for reading and never
    compared.

Host wall time is not recorded here: perfbench (``perfbench/``) is the
one wall measurement.  Older artifacts may carry a ``wall`` block per
record; it is not read.  The schema carries ``schema_version`` so the
layout can evolve without silently mis-reading old baselines.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ArtifactError
from repro.sim.runner import BenchmarkRun, geometric_mean

SCHEMA_VERSION = 1

#: Metric names whose drift is a *fidelity* regression (exact compare).
CYCLE_DOMAIN = "cycles"


def run_key(name: str, ranks: int, suffix: str = "") -> str:
    """Canonical record key for one benchmark x configuration."""
    key = f"{name}@r{ranks}"
    return f"{key}/{suffix}" if suffix else key


@dataclass(frozen=True)
class BenchmarkRecord:
    """One benchmark's measurements inside a :class:`PerfReport`."""

    key: str
    name: str
    ranks: int
    trace_bytes: int
    cycles: dict
    telemetry: dict | None = None
    """Per-segment quantile summaries (``BenchmarkRun.telemetry_dict``).
    Carried for reading trends, never compared: summaries would turn
    cycle-exact comparisons into fuzzy ones, and old baselines lack
    them entirely."""

    @classmethod
    def from_run(
        cls,
        run: BenchmarkRun,
        *,
        key: str | None = None,
        suffix: str = "",
    ) -> "BenchmarkRecord":
        payload = run.to_dict()
        return cls(
            key=key or run_key(run.name, run.ranks, suffix),
            name=run.name,
            ranks=run.ranks,
            trace_bytes=run.trace_bytes,
            cycles=payload["cycles"],
            telemetry=run.telemetry_dict(),
        )

    def to_dict(self) -> dict:
        out: dict = {
            "name": self.name,
            "ranks": self.ranks,
            "trace_bytes": self.trace_bytes,
            "cycles": dict(sorted(self.cycles.items())),
        }
        if self.telemetry is not None:
            out["telemetry"] = dict(sorted(self.telemetry.items()))
        return out

    @classmethod
    def from_dict(cls, key: str, payload: dict) -> "BenchmarkRecord":
        try:
            telemetry = payload.get("telemetry")
            return cls(
                key=key,
                name=payload["name"],
                ranks=int(payload["ranks"]),
                trace_bytes=int(payload["trace_bytes"]),
                cycles=dict(payload["cycles"]),
                telemetry=dict(telemetry) if telemetry else None,
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ArtifactError(
                f"malformed benchmark record {key!r}: {error}"
            ) from error

    @property
    def speedup(self) -> float:
        return float(self.cycles.get("speedup", 0.0))


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
    }


@dataclass
class PerfReport:
    """A labeled set of benchmark records — one ``BENCH_*.json``."""

    label: str
    benchmarks: dict[str, BenchmarkRecord] = field(default_factory=dict)
    parameters: dict = field(default_factory=dict)
    environment: dict = field(default_factory=_environment)
    created_at: str = field(
        default_factory=lambda: time.strftime(
            "%Y-%m-%dT%H:%M:%S%z", time.localtime()
        )
    )
    schema_version: int = SCHEMA_VERSION

    def add(self, record: BenchmarkRecord) -> None:
        self.benchmarks[record.key] = record

    @property
    def geomean_speedup(self) -> float | None:
        speedups = [
            record.speedup
            for record in self.benchmarks.values()
            if record.speedup > 0
        ]
        if not speedups:
            return None
        return geometric_mean(speedups)

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "label": self.label,
            "created_at": self.created_at,
            "environment": dict(sorted(self.environment.items())),
            "parameters": dict(sorted(self.parameters.items())),
            "summary": {
                "benchmarks": len(self.benchmarks),
                "geomean_speedup": self.geomean_speedup,
            },
            "benchmarks": {
                key: self.benchmarks[key].to_dict()
                for key in sorted(self.benchmarks)
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PerfReport":
        if not isinstance(payload, dict):
            raise ArtifactError(
                "artifact root must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ArtifactError(
                f"unsupported artifact schema_version {version!r} "
                f"(this build reads version {SCHEMA_VERSION})"
            )
        try:
            raw = payload["benchmarks"]
            if not isinstance(raw, dict):
                raise ArtifactError(
                    "artifact 'benchmarks' must be an object keyed by "
                    "record name"
                )
            report = cls(
                label=payload["label"],
                parameters=dict(payload.get("parameters", {})),
                environment=dict(payload.get("environment", {})),
                created_at=payload.get("created_at", ""),
                schema_version=version,
            )
        except (KeyError, TypeError) as error:
            raise ArtifactError(f"malformed artifact: {error}") from error
        for key, record in raw.items():
            report.add(BenchmarkRecord.from_dict(key, record))
        return report

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n",
            encoding="utf-8",
        )
        return path


def load_report(path: str | Path) -> PerfReport:
    """Read one ``BENCH_*.json`` artifact, raising :class:`ArtifactError`
    on a missing file, invalid JSON, or schema mismatch."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as error:
        raise ArtifactError(
            f"cannot read artifact {str(path)!r}: {error}"
        ) from error
    except ValueError as error:
        raise ArtifactError(
            f"artifact {str(path)!r} is not valid JSON: {error}"
        ) from error
    return PerfReport.from_dict(payload)


def report_from_runs(
    runs: dict[str, BenchmarkRun],
    *,
    label: str,
    parameters: dict | None = None,
) -> PerfReport:
    """Serialization hook for sweeps and cached suites: wrap a mapping
    of named :class:`BenchmarkRun` results."""
    report = PerfReport(label=label, parameters=parameters or {})
    for key, run in runs.items():
        report.add(BenchmarkRecord.from_run(run, key=str(key)))
    return report
