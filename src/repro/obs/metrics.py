"""Counter / gauge / histogram metrics registry.

The registry is the aggregate side of :mod:`repro.obs`: where the
tracer records *when* things happened, the registry records *how many*
and *how large*.  Instruments are created on demand and keyed by name,
so call sites never need to pre-declare what they measure::

    registry.counter("exec.dispatches").inc()
    registry.gauge("exec.workers").set(workers)
    registry.histogram("worker.compile_wall_ms").observe(ms)

A parallel null hierarchy (:data:`NULL_REGISTRY` handing out
:data:`NULL_COUNTER` etc.) backs the disabled observer: every method is
a no-op on shared singletons, so instrumented hot paths cost one
attribute lookup and one call when observability is off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class Counter:
    """A monotonically increasing count."""

    name: str
    value: int = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time value; remembers the maximum it ever held.

    ``max_value`` stays at its ``-inf`` sentinel until the first
    :meth:`set`; serialization layers must map the sentinel to ``None``
    (``-Infinity`` is not strict JSON) — :meth:`observed_max` does that.
    """

    name: str
    value: float = 0.0
    max_value: float = -math.inf

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    @property
    def observed_max(self) -> float | None:
        """The maximum ever set, or ``None`` before the first set."""
        return None if self.max_value == -math.inf else self.max_value


@dataclass
class Histogram:
    """Streaming summary plus power-of-two buckets.

    Buckets hold counts of observations with ``value <= 2**i`` (the
    first bucket that fits); an exact observation list would not survive
    million-symbol runs.
    """

    name: str
    count: int = 0
    total: float = 0.0
    min_value: float = math.inf
    max_value: float = -math.inf
    buckets: dict[int, int] = field(default_factory=dict)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value
        exponent = 0 if value <= 1 else math.ceil(math.log2(value))
        self.buckets[exponent] = self.buckets.get(exponent, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float | None:
        """Estimate the ``q``-quantile from the power-of-two buckets.

        The position inside the winning bucket is linearly interpolated
        between its bounds (``(2**(e-1), 2**e]``, with bucket 0 covering
        everything at or below 1) and clamped to the exact observed
        min/max, so single-bucket histograms report exact values.
        Returns ``None`` on an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be within [0, 1], got {q}")
        if not self.count:
            return None
        target = q * self.count
        cumulative = 0
        for exponent in sorted(self.buckets):
            weight = self.buckets[exponent]
            if cumulative + weight >= target:
                low = 0.0 if exponent == 0 else float(2 ** (exponent - 1))
                high = float(2**exponent)
                position = (target - cumulative) / weight
                estimate = low + position * (high - low)
                return min(max(estimate, self.min_value), self.max_value)
            cumulative += weight
        return self.max_value

    def quantiles(self) -> dict[str, float] | None:
        """The p50/p95/p99 summary, or ``None`` on an empty histogram."""
        if not self.count:
            return None
        out: dict[str, float] = {}
        for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            value = self.quantile(q)
            assert value is not None
            out[label] = value
        return out


class MetricsRegistry:
    """Name-keyed instrument store with on-demand creation."""

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    def snapshot(self) -> dict[str, dict]:
        """Plain-data view of every instrument (strict-JSON-serializable).

        Keys are globally sorted — not per-type — so serialized
        snapshots diff cleanly across runs regardless of instrument
        creation order.  Sentinel infinities never leak: a never-set
        gauge reports ``max: None`` and an empty histogram reports
        ``min``/``max``/``quantiles`` as ``None``, so the payload always
        survives ``json.dumps(..., allow_nan=False)``.
        """
        out: dict[str, dict] = {}
        for name, counter in self._counters.items():
            out[name] = {"type": "counter", "value": counter.value}
        for name, gauge in self._gauges.items():
            out[name] = {
                "type": "gauge",
                "value": gauge.value,
                "max": gauge.observed_max,
            }
        for name, histogram in self._histograms.items():
            out[name] = {
                "type": "histogram",
                "count": histogram.count,
                "total": histogram.total,
                "mean": histogram.mean,
                "min": histogram.min_value if histogram.count else None,
                "max": histogram.max_value if histogram.count else None,
                "buckets": {
                    str(exponent): histogram.buckets[exponent]
                    for exponent in sorted(histogram.buckets)
                },
                "quantiles": histogram.quantiles(),
            }
        return dict(sorted(out.items()))

    def __len__(self) -> int:
        return (
            len(self._counters) + len(self._gauges) + len(self._histograms)
        )


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:  # noqa: ARG002
        return None


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:  # noqa: ARG002
        return None


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:  # noqa: ARG002
        return None


NULL_COUNTER = _NullCounter("null")
NULL_GAUGE = _NullGauge("null")
NULL_HISTOGRAM = _NullHistogram("null")


class NullMetricsRegistry(MetricsRegistry):
    """Hands out shared no-op instruments; records nothing."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name: str) -> Counter:  # noqa: ARG002
        return NULL_COUNTER

    def gauge(self, name: str) -> Gauge:  # noqa: ARG002
        return NULL_GAUGE

    def histogram(self, name: str) -> Histogram:  # noqa: ARG002
        return NULL_HISTOGRAM


NULL_REGISTRY = NullMetricsRegistry()
