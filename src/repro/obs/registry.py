"""Process-global metrics: labeled counters, gauges and histograms.

The registry is the single source of truth for everything the
observability layer reports: direct instrumentation (the serve layer
records latencies and batch sizes as they happen) and sampled
instrumentation (managers keep their cheap native counters and a
collector copies them into a registry at snapshot time) both end in
the same three metric kinds:

* :class:`Counter` — a monotonically increasing total;
* :class:`Gauge` — a value that goes up and down (queue depth,
  resident nodes);
* :class:`Histogram` — observations bucketed over **fixed log-scale
  bounds**, so memory stays constant under sustained load and
  percentiles can be estimated from the bucket counts alone.

Every metric is a *family* that may carry labels
(``family.labels(backend="bbdd").inc()``); an unlabeled family acts as
its single time series directly.  :meth:`MetricsRegistry.snapshot`
freezes a registry into a plain JSON-able dict, and
:func:`merge_snapshots` combines snapshots from several processes
(counters and histogram buckets add, gauges add) — the associative
merge is what lets :class:`~repro.serve.pool.ForestPool` workers ship
their numbers back to the dispatcher over the existing result channel.

The module is dependency-free (stdlib only) and sits below every other
``repro`` package.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


class ObsError(ValueError):
    """Raised on metric misuse (name/type/label mismatches)."""


def log_buckets(lo: float, hi: float, per_decade: int = 3) -> Tuple[float, ...]:
    """Fixed log-scale bucket upper bounds covering ``[lo, hi]``.

    ``per_decade`` bounds are placed per power of ten; the implicit
    ``+Inf`` bucket is not included (snapshots and the Prometheus
    renderer add it).  All histogram families in the catalogue use
    bounds from this helper, so bucket layouts merge cleanly.
    """
    if lo <= 0 or hi <= lo:
        raise ObsError("log_buckets needs 0 < lo < hi")
    if per_decade < 1:
        raise ObsError("per_decade must be >= 1")
    start = math.floor(math.log10(lo) * per_decade)
    stop = math.ceil(math.log10(hi) * per_decade)
    bounds = []
    for step in range(start, stop + 1):
        bound = 10.0 ** (step / per_decade)
        bounds.append(float(f"{bound:.6g}"))
    return tuple(bounds)


#: Default bounds: microseconds to ~20 minutes, 3 per decade — wall
#: times of everything from one apply step to a full harness run.
DEFAULT_BUCKETS = log_buckets(1e-6, 1e3)


def _label_key(labelnames: Sequence[str], labels: Mapping[str, str]) -> tuple:
    if set(labels) != set(labelnames):
        raise ObsError(
            f"labels {sorted(labels)} do not match declared names "
            f"{sorted(labelnames)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class _MetricFamily:
    """Shared machinery of the three metric kinds (labels, children)."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: Dict[tuple, object] = {}
        self._lock = threading.Lock()
        if not self.labelnames:
            # An unlabeled family IS its single child: create it eagerly
            # so the family always renders (zero until first touched).
            self._children[()] = self._new_child()

    def _new_child(self):
        raise NotImplementedError

    def labels(self, **labels: str):
        """The child time series for one label combination."""
        key = _label_key(self.labelnames, labels)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._new_child())
        return child

    def _self_child(self):
        if self.labelnames:
            raise ObsError(
                f"metric {self.name!r} is labeled {self.labelnames}; "
                "use .labels(...)"
            )
        return self._children[()]

    def samples(self) -> List[dict]:
        """The family's children as snapshot sample dicts."""
        out = []
        for key, child in sorted(self._children.items()):
            sample = child.sample()
            sample["labels"] = dict(zip(self.labelnames, key))
            out.append(sample)
        return out

    def reset(self) -> None:
        """Zero every child (labeled children are kept, not dropped)."""
        for child in self._children.values():
            child.reset()


class _CounterChild:
    """One counter time series."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the total."""
        if amount < 0:
            raise ObsError("counters only go up")
        self.value += amount

    def sample(self) -> dict:
        return {"value": self.value}

    def reset(self) -> None:
        self.value = 0


class Counter(_MetricFamily):
    """A monotonically increasing total (a Prometheus ``counter``)."""

    kind = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: int = 1) -> None:
        """Increment the unlabeled series."""
        self._self_child().inc(amount)

    @property
    def value(self):
        """Current total of the unlabeled series."""
        return self._self_child().value


class _GaugeChild:
    """One gauge time series."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value) -> None:
        """Set the gauge to ``value``."""
        self.value = value

    def inc(self, amount=1) -> None:
        """Add ``amount`` (may be negative)."""
        self.value += amount

    def dec(self, amount=1) -> None:
        """Subtract ``amount``."""
        self.value -= amount

    def sample(self) -> dict:
        return {"value": self.value}

    def reset(self) -> None:
        self.value = 0


class Gauge(_MetricFamily):
    """A value that can go up and down (a Prometheus ``gauge``).

    Gauges from different processes **add** under
    :func:`merge_snapshots` (queue depths and resident counts aggregate
    meaningfully; keep per-process gauges labeled if addition is not
    what you want).
    """

    kind = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value) -> None:
        """Set the unlabeled series."""
        self._self_child().set(value)

    def inc(self, amount=1) -> None:
        """Add to the unlabeled series."""
        self._self_child().inc(amount)

    def dec(self, amount=1) -> None:
        """Subtract from the unlabeled series."""
        self._self_child().dec(amount)

    @property
    def value(self):
        """Current value of the unlabeled series."""
        return self._self_child().value


class _HistogramChild:
    """One histogram time series: per-bucket counts, sum, count."""

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0..1) from the bucket counts.

        Linear interpolation inside the target bucket (Prometheus'
        ``histogram_quantile`` estimator); observations in the ``+Inf``
        bucket clamp to the highest finite bound.  Returns 0.0 when the
        series has no observations.
        """
        return _bucket_quantile(q, self.bounds, self.counts)

    def sample(self) -> dict:
        return {"counts": list(self.counts), "sum": self.sum, "count": self.count}

    def reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0


def _bucket_quantile(q: float, bounds: Sequence[float], counts: Sequence[int]) -> float:
    if not 0.0 <= q <= 1.0:
        raise ObsError("quantile must be within [0, 1]")
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = q * total
    cumulative = 0
    for index, count in enumerate(counts):
        cumulative += count
        if cumulative >= rank and count:
            if index >= len(bounds):
                return float(bounds[-1]) if bounds else 0.0
            upper = bounds[index]
            lower = bounds[index - 1] if index else 0.0
            within = rank - (cumulative - count)
            return lower + (upper - lower) * (within / count)
    return float(bounds[-1]) if bounds else 0.0


class Histogram(_MetricFamily):
    """Observations over fixed log-scale buckets (Prometheus shape).

    Memory per series is one integer per bucket regardless of traffic,
    which is what lets the serve layer drop its unbounded latency list;
    :meth:`quantile` recovers p50/p99 from the buckets.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if list(bounds) != sorted(set(bounds)):
            raise ObsError("histogram buckets must be strictly increasing")
        self.buckets = bounds
        super().__init__(name, help, labelnames)

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        """Record one observation on the unlabeled series."""
        self._self_child().observe(value)

    def quantile(self, q: float) -> float:
        """Quantile estimate of the unlabeled series (see the child)."""
        return self._self_child().quantile(q)

    @property
    def count(self) -> int:
        """Observation count of the unlabeled series."""
        return self._self_child().count


class MetricsRegistry:
    """A named collection of metric families.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the
    first call declares the family, later calls return it (and raise
    :class:`ObsError` if kind or labels disagree — one name, one
    meaning).  :meth:`snapshot` freezes the registry to a JSON-able
    dict, :meth:`reset` zeroes it, and :meth:`merge` folds a snapshot
    from another process into this registry's live metrics.
    """

    def __init__(self) -> None:
        self._metrics: "Dict[str, _MetricFamily]" = {}
        self._lock = threading.Lock()

    def _declare(self, cls, name: str, help: str, labelnames, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = cls(name, help, labelnames, **kwargs)
                    self._metrics[name] = metric
                    return metric
        if not isinstance(metric, cls):
            raise ObsError(
                f"metric {name!r} already declared as {metric.kind}, not {cls.kind}"
            )
        if tuple(labelnames) != metric.labelnames:
            raise ObsError(
                f"metric {name!r} already declared with labels "
                f"{metric.labelnames}, not {tuple(labelnames)}"
            )
        requested = kwargs.get("buckets")
        if requested is not None and tuple(requested) != metric.buckets:
            raise ObsError(
                f"histogram {name!r} already declared with buckets "
                f"{metric.buckets}, not {tuple(requested)}"
            )
        return metric

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        """Get or declare a :class:`Counter` family."""
        return self._declare(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        """Get or declare a :class:`Gauge` family."""
        return self._declare(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        """Get or declare a :class:`Histogram` family."""
        return self._declare(Histogram, name, help, labelnames, buckets=buckets)

    def get(self, name: str) -> Optional[_MetricFamily]:
        """The family registered under ``name``, or None."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        """Registered family names, sorted."""
        return sorted(self._metrics)

    def snapshot(self) -> dict:
        """Freeze the registry into a plain JSON-able dict.

        Shape: ``{name: {"type", "help", "labelnames", "samples",
        ["buckets"]}}`` with counter/gauge samples ``{"labels",
        "value"}`` and histogram samples ``{"labels", "counts", "sum",
        "count"}`` (``counts`` has one extra slot for ``+Inf``).
        """
        out: dict = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            entry = {
                "type": metric.kind,
                "help": metric.help,
                "labelnames": list(metric.labelnames),
                "samples": metric.samples(),
            }
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
            out[name] = entry
        return out

    def reset(self) -> None:
        """Zero every family (declarations are kept)."""
        for metric in self._metrics.values():
            metric.reset()

    def merge(self, snapshot: Mapping) -> None:
        """Fold one snapshot into this registry's live metrics.

        Families missing here are declared from the snapshot; counter
        and histogram samples add, gauge samples add.  Used by the pool
        dispatcher to absorb worker snapshots.
        """
        for name, entry in snapshot.items():
            kind = entry["type"]
            labelnames = tuple(entry.get("labelnames", ()))
            if kind == "counter":
                metric = self.counter(name, entry.get("help", ""), labelnames)
            elif kind == "gauge":
                metric = self.gauge(name, entry.get("help", ""), labelnames)
            elif kind == "histogram":
                metric = self.histogram(
                    name, entry.get("help", ""), labelnames, entry.get("buckets")
                )
            else:
                raise ObsError(f"unknown metric type {kind!r} in snapshot")
            for sample in entry.get("samples", ()):
                labels = sample.get("labels", {})
                child = metric.labels(**labels) if labelnames else metric._self_child()
                if kind == "histogram":
                    counts = sample.get("counts", ())
                    if len(counts) != len(child.counts):
                        raise ObsError(
                            f"bucket layout mismatch merging {name!r}"
                        )
                    for index, count in enumerate(counts):
                        child.counts[index] += count
                    child.sum += sample.get("sum", 0.0)
                    child.count += sample.get("count", 0)
                elif kind == "counter":
                    child.value += sample.get("value", 0)
                else:
                    child.value += sample.get("value", 0)


def merge_snapshots(*snapshots: Mapping) -> dict:
    """Merge snapshot dicts into one (pure, associative).

    Counters and histogram buckets add; gauges add.  The result is a
    fresh snapshot dict — inputs are not modified.  Associativity
    (``merge(a, merge(b, c)) == merge(merge(a, b), c)``) is what makes
    multiprocess aggregation order-independent.
    """
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.merge(snapshot)
    return registry.snapshot()


def snapshot_quantile(entry: Mapping, q: float, **labels: str) -> float:
    """Quantile estimate from one histogram *snapshot* entry.

    ``entry`` is a ``snapshot()[name]`` histogram dict; ``labels``
    selects the sample (omit for an unlabeled family).
    """
    if entry.get("type") != "histogram":
        raise ObsError("snapshot_quantile needs a histogram entry")
    labelnames = entry.get("labelnames", [])
    want = {name: str(labels[name]) for name in labelnames}
    for sample in entry.get("samples", ()):
        if sample.get("labels", {}) == want:
            return _bucket_quantile(q, entry.get("buckets", ()), sample["counts"])
    return 0.0


#: The process-global registry every layer reports into by default.
REGISTRY = MetricsRegistry()
