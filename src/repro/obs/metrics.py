"""A dependency-free metrics registry: counters, gauges, histograms.

The instruments follow the Prometheus data model (monotonic counters,
settable gauges, fixed-bucket histograms with cumulative buckets) but
depend only on the standard library, because the audit pipeline must run
in air-gapped compliance environments.  Three design rules keep the hot
paths honest:

* **zero-cost when disabled** — :data:`NULL_REGISTRY` hands out shared
  no-op instruments whose methods do nothing; library callers that never
  ask for telemetry pay only an attribute load and an empty call;
* **label sets are kwargs** — ``counter.inc(kind="invalid-execution")``
  keeps one time series per distinct label set, like
  ``infringements_total{kind="invalid-execution"}``.

Quantiles (p50/p95) are estimated from the histogram buckets the way
Prometheus' ``histogram_quantile`` does — linear interpolation inside
the bucket holding the quantile — so they are approximations bounded by
the bucket resolution; ``max`` is tracked exactly.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from contextlib import contextmanager
from typing import Iterator, Optional, Sequence

#: The canonical key of one label set: sorted (name, value) pairs.
LabelKey = tuple[tuple[str, str], ...]

#: Default latency buckets (seconds): 100us .. ~100s, roughly x4 steps.
DEFAULT_TIME_BUCKETS = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0
)

#: Default size buckets (counts): frontier sizes, silent states, etc.
DEFAULT_SIZE_BUCKETS = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 5000.0, 25000.0, 100000.0,
)


def _label_key(labels: dict[str, str]) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _CounterSeries:
    """One pre-bound label set of a :class:`Counter`.

    Hot paths that increment the same series per event (per replayed
    entry, per ingest) bind once and skip the per-call label-key build;
    the increment itself stays under the parent counter's lock, so
    bound and kwargs-style updates interleave safely.
    """

    __slots__ = ("_counter", "_key")

    def __init__(self, counter: "Counter", key: LabelKey):
        self._counter = counter
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        counter = self._counter
        with counter._lock:
            counter._values[self._key] = (
                counter._values.get(self._key, 0.0) + amount
            )


class Counter:
    """A monotonically increasing value, optionally split by labels."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._values: dict[LabelKey, float] = {}
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def series(self, **labels: str) -> _CounterSeries:
        """A pre-bound handle for per-event increments of one label set."""
        return _CounterSeries(self, _label_key(labels))

    def value(self, **labels: str) -> float:
        return self._values.get(_label_key(labels), 0.0)

    @property
    def total(self) -> float:
        """The sum over every label set."""
        return sum(self._values.values())

    def samples(self) -> dict[LabelKey, float]:
        with self._lock:
            return dict(self._values)


class Gauge:
    """A value that can go up and down (e.g. currently open cases)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._values: dict[LabelKey, float] = {}
        self._lock = threading.Lock()

    def set(self, value: float, **labels: str) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> dict[LabelKey, float]:
        with self._lock:
            return dict(self._values)


class _HistogramSeries:
    """The accumulators of one label set of a histogram."""

    __slots__ = ("bucket_counts", "count", "sum", "max", "exemplars")

    def __init__(self, n_buckets: int):
        self.bucket_counts = [0] * n_buckets  # non-cumulative, +Inf last
        self.count = 0
        self.sum = 0.0
        self.max = 0.0
        # bucket index -> the latest exemplar that landed there:
        # {"value", "trace_id", "span_id", "ts"} (OTel-style exemplars;
        # only populated via observe_with_exemplar, i.e. when tracing
        # is on — the plain observe() path never pays for them).
        self.exemplars: dict[int, dict] = {}


class Histogram:
    """A fixed-bucket histogram with p50/p95/max summaries.

    *buckets* are the finite upper bounds, in increasing order; a final
    +Inf bucket is implicit.  Values land in the first bucket whose
    bound is >= the value (cumulative semantics at export time).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(
                f"histogram {name} needs increasing, non-empty buckets"
            )
        self.name = name
        self.help = help
        self.buckets = tuple(float(b) for b in buckets)
        self._series: dict[LabelKey, _HistogramSeries] = {}
        self._lock = threading.Lock()

    def _series_for(self, key: LabelKey) -> _HistogramSeries:
        series = self._series.get(key)
        if series is None:
            series = _HistogramSeries(len(self.buckets) + 1)
            self._series[key] = series
        return series

    def observe(self, value: float, **labels: str) -> None:
        # bisect_left finds the first bound >= value (+Inf past the end),
        # matching the linear scan it replaced.
        index = bisect_left(self.buckets, value)
        with self._lock:
            series = self._series_for(_label_key(labels))
            series.bucket_counts[index] += 1
            series.count += 1
            series.sum += value
            if value > series.max:
                series.max = value

    def series(self, **labels: str) -> "_BoundHistogram":
        """A pre-bound handle for per-event observations of one label set."""
        return _BoundHistogram(self, _label_key(labels))

    def observe_with_exemplar(
        self,
        value: float,
        trace_id: str,
        span_id: str = "",
        **labels: str,
    ) -> None:
        """Observe *value* and attach a trace-id exemplar to its bucket.

        The exemplar (latest per bucket) ties a latency bucket back to a
        concrete trace — "p99 got slower, *this* case is why".  Callers
        use it only when tracing is enabled, so the plain hot path never
        reads the wall clock for exemplar timestamps.
        """
        key = _label_key(labels)
        index = bisect_left(self.buckets, value)
        now = time.time()
        with self._lock:
            series = self._series_for(key)
            series.bucket_counts[index] += 1
            series.count += 1
            series.sum += value
            if value > series.max:
                series.max = value
            series.exemplars[index] = {
                "value": value,
                "trace_id": trace_id,
                "span_id": span_id,
                "ts": now,
            }

    @contextmanager
    def time(self, **labels: str) -> Iterator[None]:
        """Observe the wall-clock duration of the ``with`` body (seconds)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(time.perf_counter() - start, **labels)

    # -- summaries ---------------------------------------------------------
    def count(self, **labels: str) -> int:
        series = self._series.get(_label_key(labels))
        return series.count if series else 0

    def sum(self, **labels: str) -> float:
        series = self._series.get(_label_key(labels))
        return series.sum if series else 0.0

    def quantile(self, q: float, **labels: str) -> float:
        """Bucket-interpolated quantile estimate (Prometheus-style)."""
        series = self._series.get(_label_key(labels))
        if series is None or series.count == 0:
            return 0.0
        rank = q * series.count
        cumulative = 0
        lower = 0.0
        for i, bound in enumerate(self.buckets):
            in_bucket = series.bucket_counts[i]
            if cumulative + in_bucket >= rank:
                if in_bucket == 0:
                    return bound
                fraction = (rank - cumulative) / in_bucket
                return lower + (bound - lower) * fraction
            cumulative += in_bucket
            lower = bound
        return series.max  # quantile fell in the +Inf bucket

    def summary(self, **labels: str) -> dict[str, float]:
        series = self._series.get(_label_key(labels))
        if series is None:
            return {
                "count": 0, "sum": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0,
            }
        return {
            "count": series.count,
            "sum": series.sum,
            "p50": self.quantile(0.50, **labels),
            "p95": self.quantile(0.95, **labels),
            "p99": self.quantile(0.99, **labels),
            "max": series.max,
        }

    def samples(self) -> dict[LabelKey, dict]:
        with self._lock:
            return {
                key: {
                    "buckets": list(series.bucket_counts),
                    "count": series.count,
                    "sum": series.sum,
                    "max": series.max,
                    "exemplars": {
                        index: dict(exemplar)
                        for index, exemplar in series.exemplars.items()
                    },
                }
                for key, series in self._series.items()
            }


class _BoundHistogram:
    """One pre-bound label set of a :class:`Histogram` (see
    :class:`_CounterSeries` for the rationale)."""

    __slots__ = ("_histogram", "_series")

    def __init__(self, histogram: Histogram, key: LabelKey):
        self._histogram = histogram
        with histogram._lock:
            self._series = histogram._series_for(key)

    def observe(self, value: float) -> None:
        histogram = self._histogram
        index = bisect_left(histogram.buckets, value)
        series = self._series
        with histogram._lock:
            series.bucket_counts[index] += 1
            series.count += 1
            series.sum += value
            if value > series.max:
                series.max = value


@contextmanager
def timed(histogram: "Histogram | NullHistogram", **labels: str) -> Iterator[None]:
    """``with timed(h):`` — observe the body's duration into *histogram*.

    With a :class:`NullHistogram` the clock is never read, so the
    disabled path stays free of syscalls.
    """
    if isinstance(histogram, NullHistogram):
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        histogram.observe(time.perf_counter() - start, **labels)


class MetricsRegistry:
    """Get-or-create home of every instrument of one process/component."""

    enabled = True

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, factory, kind: str):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                self._instruments[name] = instrument
            elif instrument.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {instrument.kind}, "
                    f"not {kind}"
                )
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, lambda: Counter(name, help), "counter")

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name, help), "gauge")

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, help, buckets), "histogram"
        )

    def collect(self) -> list[Counter | Gauge | Histogram]:
        """Every registered instrument, in registration order."""
        with self._lock:
            return list(self._instruments.values())

    def get(self, name: str) -> Optional[Counter | Gauge | Histogram]:
        return self._instruments.get(name)


# ---------------------------------------------------------------------------
# The disabled path: shared no-op instruments.


class NullCounter:
    kind = "counter"
    name = "<null>"
    help = ""

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        pass

    def value(self, **labels: str) -> float:
        return 0.0

    total = 0.0

    def series(self, **labels: str) -> "NullCounter":
        return self

    def samples(self) -> dict:
        return {}


class NullGauge:
    kind = "gauge"
    name = "<null>"
    help = ""

    def set(self, value: float, **labels: str) -> None:
        pass

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        pass

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        pass

    def value(self, **labels: str) -> float:
        return 0.0

    def samples(self) -> dict:
        return {}


class _NullTimer:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_TIMER = _NullTimer()


class NullHistogram:
    kind = "histogram"
    name = "<null>"
    help = ""
    buckets = ()

    def observe(self, value: float, **labels: str) -> None:
        pass

    def observe_with_exemplar(
        self, value: float, trace_id: str, span_id: str = "", **labels: str
    ) -> None:
        pass

    def series(self, **labels: str) -> "NullHistogram":
        return self

    def time(self, **labels: str) -> _NullTimer:
        return _NULL_TIMER

    def count(self, **labels: str) -> int:
        return 0

    def sum(self, **labels: str) -> float:
        return 0.0

    def quantile(self, q: float, **labels: str) -> float:
        return 0.0

    def summary(self, **labels: str) -> dict[str, float]:
        return {
            "count": 0, "sum": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0,
        }

    def samples(self) -> dict:
        return {}


_NULL_COUNTER = NullCounter()
_NULL_GAUGE = NullGauge()
_NULL_HISTOGRAM = NullHistogram()


class NullRegistry:
    """The no-op registry: every request returns a shared null instrument.

    This is what library callers get when they do not ask for telemetry;
    instrument method calls are empty-bodied, no lock is taken, no clock
    is read.
    """

    enabled = False

    def counter(self, name: str, help: str = "") -> NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str, help: str = "") -> NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str, help: str = "", buckets=()) -> NullHistogram:
        return _NULL_HISTOGRAM

    def collect(self) -> list:
        return []

    def get(self, name: str) -> None:
        return None


NULL_REGISTRY = NullRegistry()

# ---------------------------------------------------------------------------
# Process-wide default registry (for applications; the library default
# remains NULL_REGISTRY via Telemetry.disabled()).

_default_registry = MetricsRegistry()
_default_lock = threading.Lock()


def default_registry() -> MetricsRegistry:
    """The process-wide shared registry for application callers."""
    return _default_registry


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-wide registry (e.g. in tests); returns the old."""
    global _default_registry
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
        return previous
