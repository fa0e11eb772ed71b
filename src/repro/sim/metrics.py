"""Lightweight metrics: counters, histograms, time series, rate meters.

Every subsystem exposes its observability through these so that experiments
read results the same way an operator would read ``/proc`` or ``ethtool -S``.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

from .. import units


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = ""):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease by {amount}")
        self.value += amount

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class Histogram:
    """Histogram of observed samples.

    By default every value is stored, so percentiles are exact — which
    matters when asserting latency distributions in tests, but grows without
    bound under long workloads. Pass ``max_samples`` to cap retention: the
    histogram then keeps a *deterministic* systematic reservoir (no RNG, so
    simulation runs stay reproducible) — whenever the buffer fills it drops
    every other retained sample and doubles its sampling stride. Count,
    total, mean, min, and max stay exact in both modes; percentiles become
    approximate (computed over the reservoir) once decimation kicks in.
    """

    __slots__ = (
        "name", "_samples", "_sorted", "max_samples",
        "_stride", "_skip", "_count", "_total", "_min", "_max",
    )

    def __init__(self, name: str = "", max_samples: Optional[int] = None):
        if max_samples is not None and max_samples < 2:
            raise ValueError(f"max_samples must be >= 2, got {max_samples}")
        self.name = name
        self.max_samples = max_samples
        self._samples: List[float] = []
        self._sorted = True
        self._stride = 1  # retain every _stride-th observation
        self._skip = 0  # observations to skip before the next retained one
        self._count = 0
        self._total = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float, n: int = 1) -> None:
        """Record ``value``; with ``n > 1``, record it as ``n`` identical
        observations (a fluid epoch charging one per-packet cost N times).
        Count, total, min, and max account for all ``n`` exactly; the sample
        buffer retains ``value`` once per call, so percentiles under heavy
        weighting carry the same approximation caveat as decimation."""
        if n < 1:
            raise ValueError(f"histogram {self.name!r} observe needs n >= 1, got {n}")
        self._count += n
        self._total += value * n
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        if self.max_samples is not None:
            if self._skip > 0:
                self._skip -= 1
                return
            self._skip = self._stride - 1
        self._samples.append(value)
        self._sorted = False
        if self.max_samples is not None and len(self._samples) >= self.max_samples:
            del self._samples[1::2]  # halve the reservoir, double the stride
            self._stride *= 2
            self._skip = self._stride - 1

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    @property
    def minimum(self) -> float:
        return self._min if self._min is not None else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self._max is not None else 0.0

    @property
    def retained(self) -> int:
        """Samples actually held (== count unless decimation kicked in)."""
        return len(self._samples)

    def percentile(self, p: float) -> float:
        """p-th percentile (nearest-rank), 0 <= p <= 100. Exact in
        unbounded mode; over the reservoir once ``max_samples`` bites."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._samples:
            return 0.0
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        rank = max(1, math.ceil(p / 100 * len(self._samples)))
        return self._samples[rank - 1]

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p90(self) -> float:
        return self.percentile(90)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s observations into this histogram in place.

        Count, total, min, and max merge exactly. Retained samples are
        concatenated and re-decimated if the result overflows
        ``max_samples``, so percentiles carry the same caveat as
        :meth:`observe` under decimation: approximate, over the combined
        reservoir. Returns ``self`` for chaining."""
        self._count += other._count
        self._total += other._total
        if other._min is not None and (self._min is None or other._min < self._min):
            self._min = other._min
        if other._max is not None and (self._max is None or other._max > self._max):
            self._max = other._max
        self._samples.extend(other._samples)
        self._sorted = False
        if self.max_samples is not None:
            while len(self._samples) >= self.max_samples:
                del self._samples[1::2]
                self._stride *= 2
                self._skip = self._stride - 1
        return self

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.minimum,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "max": self.maximum,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.1f}>"


class TimeSeries:
    """(timestamp_ns, value) samples, e.g. queue depth over time."""

    __slots__ = ("name", "points")

    def __init__(self, name: str = ""):
        self.name = name
        self.points: List[Tuple[int, float]] = []

    def record(self, time_ns: int, value: float) -> None:
        if self.points and time_ns < self.points[-1][0]:
            raise ValueError(
                f"time series {self.name!r} timestamps must be non-decreasing"
            )
        self.points.append((time_ns, value))

    @property
    def last(self) -> Optional[float]:
        return self.points[-1][1] if self.points else None

    def window_mean(self, start_ns: int, end_ns: int) -> float:
        vals = [v for t, v in self.points if start_ns <= t <= end_ns]
        return sum(vals) / len(vals) if vals else 0.0

    def __len__(self) -> int:
        return len(self.points)


class RateMeter:
    """Accumulates bytes (or events) and reports an average rate."""

    __slots__ = ("name", "total_bytes", "first_ns", "last_ns")

    def __init__(self, name: str = ""):
        self.name = name
        self.total_bytes = 0
        self.first_ns: Optional[int] = None
        self.last_ns: Optional[int] = None

    def record(self, time_ns: int, nbytes: int) -> None:
        if self.first_ns is None:
            self.first_ns = time_ns
        self.last_ns = time_ns
        self.total_bytes += nbytes

    def rate_bps(self, end_ns: Optional[int] = None) -> float:
        """Average rate from first sample to ``end_ns`` (default last)."""
        if self.first_ns is None:
            return 0.0
        end = end_ns if end_ns is not None else self.last_ns
        assert end is not None
        return units.throughput_bps(self.total_bytes, end - self.first_ns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RateMeter {self.name} bytes={self.total_bytes}>"


class MetricSet:
    """A named bag of metrics with lazy creation, one per subsystem."""

    def __init__(self, prefix: str = ""):
        self.prefix = prefix
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._series: Dict[str, TimeSeries] = {}
        self._meters: Dict[str, RateMeter] = {}

    def _qualify(self, name: str) -> str:
        return f"{self.prefix}.{name}" if self.prefix else name

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(self._qualify(name))
        return counter

    def histogram(self, name: str, max_samples: Optional[int] = None) -> Histogram:
        """Get-or-create a histogram. ``max_samples`` (reservoir bound) only
        applies on first creation; later lookups return the existing one."""
        if name not in self._histograms:
            self._histograms[name] = Histogram(self._qualify(name), max_samples=max_samples)
        return self._histograms[name]

    def series(self, name: str) -> TimeSeries:
        if name not in self._series:
            self._series[name] = TimeSeries(self._qualify(name))
        return self._series[name]

    def meter(self, name: str) -> RateMeter:
        if name not in self._meters:
            self._meters[name] = RateMeter(self._qualify(name))
        return self._meters[name]

    def snapshot(self) -> Dict[str, float]:
        """Flat view of counters and histogram means (for reports/tests)."""
        out: Dict[str, float] = {}
        for name, counter in self._counters.items():
            out[self._qualify(name)] = float(counter.value)
        for name, hist in self._histograms.items():
            out[self._qualify(name) + ".mean"] = hist.mean
            out[self._qualify(name) + ".count"] = float(hist.count)
        return out
