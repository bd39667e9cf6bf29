"""Labelled metrics for simulated systems.

A :class:`MetricsRegistry` owns every metric of one simulation run:

- :class:`CounterMetric` -- monotonic counts (``ring_ops{ring="x",op="push"}``),
- :class:`GaugeMetric` -- last-written values,
- :class:`TimeWeightedMetric` -- piecewise-constant values integrated over
  simulated time (queue depths, frequency), and
- :class:`HistogramMetric` -- log-linear histograms of durations/sizes
  with interpolation-free percentiles.

Metrics are identified by ``(name, labels)``; the canonical rendering is
Prometheus-flavoured: ``name{k="v",k2="v2"}``. Everything a registry
records is a pure function of the simulation, so :meth:`MetricsRegistry.dump`
is byte-stable across same-seed runs and :meth:`MetricsRegistry.digest`
is the determinism check CI leans on.

Registries are picklable (a sweep worker ships its registry back to the
parent inside a :class:`~repro.obs.shard.TelemetryShard`) and mergeable
(:meth:`MetricsRegistry.merge` folds one registry into another metric by
metric). Time-weighted metrics need a live environment to keep
integrating, so pickling freezes them into :class:`_FrozenTimeWeighted`
stand-ins that render byte-identically but no longer advance.

When telemetry is disabled nothing constructs a registry at all (the
``env.telemetry`` attribute is ``None`` and every instrumentation site
guards on that); :class:`NullMetricsRegistry` additionally provides a
no-op drop-in for code that wants an unconditional metric handle.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Tuple

from repro.sim.monitor import TimeWeightedValue, loglinear_bucket, \
    loglinear_lower_bound

#: A metric's identity: name plus sorted ``(key, value)`` label pairs.
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Dict[str, object]) -> MetricKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def render_key(key: MetricKey) -> str:
    """Canonical ``name{k="v"}`` rendering of a metric key."""
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


def _fmt(value: float) -> str:
    """Stable numeric formatting for dumps/digests."""
    if isinstance(value, int):
        return str(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


class CounterMetric:
    """Monotonic counter."""

    __slots__ = ("key", "value")
    kind = "counter"

    def __init__(self, key: MetricKey):
        self.key = key
        self.value = 0

    def incr(self, by: int = 1) -> None:
        self.value += by

    def copy(self) -> "CounterMetric":
        out = CounterMetric(self.key)
        out.value = self.value
        return out

    def merge(self, other: "CounterMetric") -> "CounterMetric":
        self.value += other.value
        return self

    def sample_lines(self) -> List[Tuple[str, str]]:
        return [(render_key(self.key), _fmt(self.value))]


class GaugeMetric:
    """Last-written value."""

    __slots__ = ("key", "value")
    kind = "gauge"

    def __init__(self, key: MetricKey):
        self.key = key
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def copy(self) -> "GaugeMetric":
        out = GaugeMetric(self.key)
        out.value = self.value
        return out

    def merge(self, other: "GaugeMetric") -> "GaugeMetric":
        # Gauges are last-written values; the merged-in side is "newer"
        # by convention, so merging is not commutative (documented).
        self.value = other.value
        return self

    def sample_lines(self) -> List[Tuple[str, str]]:
        return [(render_key(self.key), _fmt(self.value))]


class TimeWeightedMetric:
    """Piecewise-constant value with a simulated-time integral."""

    __slots__ = ("key", "_tw")
    kind = "timeweighted"

    def __init__(self, key: MetricKey, env):
        self.key = key
        self._tw = TimeWeightedValue(env)

    @property
    def value(self) -> float:
        return self._tw.value

    def set(self, value: float) -> None:
        self._tw.set(value)

    def add(self, delta: float) -> None:
        self._tw.add(delta)

    @property
    def integral(self) -> float:
        return self._tw.integral

    def time_average(self, since: float = 0.0) -> float:
        return self._tw.time_average(since)

    def sample_lines(self) -> List[Tuple[str, str]]:
        base = render_key(self.key)
        return [(f"{base}:last", _fmt(self._tw.value)),
                (f"{base}:integral", _fmt(self._tw.integral))]

    def copy(self) -> "_FrozenTimeWeighted":
        return _FrozenTimeWeighted(self.key, self.value, self.integral)

    def __reduce__(self):
        # The live metric holds a TimeWeightedValue (and through it an
        # Environment full of generators); pickling freezes it at the
        # current simulated time, which renders byte-identically.
        return _FrozenTimeWeighted, (self.key, self.value, self.integral)


class _FrozenTimeWeighted:
    """A :class:`TimeWeightedMetric` detached from its environment.

    Produced by pickling (sweep workers shipping shards to the parent)
    and by :meth:`MetricsRegistry.merge`. Holds the last value and the
    integral as plain floats; :meth:`sample_lines` is byte-identical to
    the live metric's, so a merged shard dumps exactly what the worker
    would have dumped.
    """

    __slots__ = ("key", "value", "integral")
    kind = "timeweighted"

    def __init__(self, key: MetricKey, value: float, integral: float):
        self.key = key
        self.value = value
        self.integral = integral

    def copy(self) -> "_FrozenTimeWeighted":
        return _FrozenTimeWeighted(self.key, self.value, self.integral)

    def merge(self, other) -> "_FrozenTimeWeighted":
        # Integrals accumulate; the last value is the merged-in side's
        # (last-write-wins, matching GaugeMetric.merge).
        self.integral += other.integral
        self.value = other.value
        return self

    def time_average(self, since: float = 0.0) -> float:
        raise RuntimeError("frozen time-weighted metrics have no clock; "
                           "compute time averages before sharding")

    def sample_lines(self) -> List[Tuple[str, str]]:
        base = render_key(self.key)
        return [(f"{base}:last", _fmt(self.value)),
                (f"{base}:integral", _fmt(self.integral))]


class HistogramMetric:
    """Log-linear histogram (shared bucketing with
    :meth:`repro.sim.monitor.LatencyStats.histogram`).

    Buckets are sparse: ``{bucket_index: count}``; percentiles return the
    lower bound of the bucket holding the nearest-rank sample -- no
    interpolation, so merged histograms report the same percentiles as
    the union of their samples would (to bucket resolution).
    """

    __slots__ = ("key", "buckets", "count", "total", "vmin", "vmax")
    kind = "histogram"

    def __init__(self, key: MetricKey):
        self.key = key
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.vmin = float("inf")
        self.vmax = float("-inf")

    def record(self, value: float) -> None:
        idx = loglinear_bucket(value)
        self.buckets[idx] = self.buckets.get(idx, 0) + 1
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def percentile(self, p: float) -> float:
        """Lower bound of the bucket holding the nearest-rank sample."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile {p} out of range")
        if not self.count:
            return float("nan")
        rank = max(1, -(-int(p * self.count) // 100))  # ceil(p/100*n), >= 1
        seen = 0
        for idx in sorted(self.buckets):
            seen += self.buckets[idx]
            if seen >= rank:
                return loglinear_lower_bound(idx)
        return loglinear_lower_bound(max(self.buckets))

    def copy(self) -> "HistogramMetric":
        out = HistogramMetric(self.key)
        out.buckets = {idx: n for idx, n in self.buckets.items() if n}
        out.count = self.count
        out.total = self.total
        out.vmin = self.vmin
        out.vmax = self.vmax
        return out

    def merge(self, other: "HistogramMetric") -> "HistogramMetric":
        if not other.count:
            # An empty histogram (or one holding only zero-count bucket
            # entries, e.g. hand-built shard state) must not perturb the
            # digest: percentile()'s max-bucket fallback and the sparse
            # bucket set itself would otherwise change.
            return self
        for idx, n in other.buckets.items():
            if n:
                self.buckets[idx] = self.buckets.get(idx, 0) + n
        self.count += other.count
        self.total += other.total
        self.vmin = min(self.vmin, other.vmin)
        self.vmax = max(self.vmax, other.vmax)
        return self

    def sample_lines(self) -> List[Tuple[str, str]]:
        base = render_key(self.key)
        if not self.count:
            return [(f"{base}:count", "0")]
        return [
            (f"{base}:count", _fmt(self.count)),
            (f"{base}:sum", _fmt(self.total)),
            (f"{base}:min", _fmt(self.vmin)),
            (f"{base}:p50", _fmt(self.percentile(50))),
            (f"{base}:p99", _fmt(self.percentile(99))),
            (f"{base}:max", _fmt(self.vmax)),
        ]


class MetricsRegistry:
    """Get-or-create registry of labelled metrics for one run.

    Handles are cheap to look up and stable, so hot paths can cache the
    returned metric object. ``snapshot``/``delta`` support before/after
    comparisons, and ``dump``/``digest`` give the canonical byte-stable
    rendering.

    A repeated lookup whose label values are all ``str`` skips
    :func:`_key`: ``_handles`` maps the raw call shape (kind, name,
    labels in call order) to the metric it resolved to. Any other value
    type takes the canonical path every time: for those, raw equality
    and ``str()`` disagree (``True == 1``, yet they render ``"True"``
    and ``"1"``). :meth:`merge` drops the memo (it may swap a metric
    for a frozen copy), and pickling never carries it.
    """

    def __init__(self, env=None):
        self.env = env
        self._metrics: Dict[MetricKey, object] = {}
        self._handles: Dict[tuple, object] = {}

    def _get(self, cls, name: str, labels: Dict[str, object], *args):
        for value in labels.values():
            if type(value) is not str:
                return self._resolve(cls, _key(name, labels), args)
        shape = (cls, name, *labels.items())
        metric = self._handles.get(shape)
        if metric is None:
            metric = self._handles[shape] = self._resolve(
                cls, _key(name, labels), args)
        return metric

    def _resolve(self, cls, key: MetricKey, args: tuple):
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(key, *args)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(f"metric {render_key(key)} already registered "
                            f"as {type(metric).__name__}")
        return metric

    def counter(self, name: str, **labels) -> CounterMetric:
        return self._get(CounterMetric, name, labels)

    def gauge(self, name: str, **labels) -> GaugeMetric:
        return self._get(GaugeMetric, name, labels)

    def timeweighted(self, name: str, **labels) -> TimeWeightedMetric:
        if self.env is None:
            raise RuntimeError("time-weighted metrics need a registry "
                               "constructed with an env")
        return self._get(TimeWeightedMetric, name, labels, self.env)

    def histogram(self, name: str, **labels) -> HistogramMetric:
        return self._get(HistogramMetric, name, labels)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return any(key[0] == name for key in self._metrics)

    # -- pickling / merging -------------------------------------------------

    def __getstate__(self):
        # The env only serves time-weighted lookups; it is unpicklable
        # (generators) and meaningless in another process. Metrics
        # freeze themselves (see TimeWeightedMetric.__reduce__).
        return {"_metrics": self._metrics}

    def __setstate__(self, state):
        self.env = None
        self._metrics = state["_metrics"]
        self._handles = {}

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other``'s metrics into this registry, key by key.

        Counters and histograms accumulate; gauges and time-weighted
        values are last-write-wins on the value (integrals accumulate),
        so merging those is deliberately not commutative. Merging an
        empty registry is a no-op: the digest is unchanged.
        """
        self._handles.clear()
        for key, theirs in other._metrics.items():
            mine = self._metrics.get(key)
            if mine is None:
                self._metrics[key] = theirs.copy()
                continue
            if mine.kind != theirs.kind:
                raise TypeError(
                    f"metric {render_key(key)} is a {mine.kind} here but "
                    f"a {theirs.kind} in the merged-in registry")
            if isinstance(mine, TimeWeightedMetric):
                # A live time-weighted metric cannot absorb foreign
                # samples; freeze it in place first.
                mine = self._metrics[key] = mine.copy()
            mine.merge(theirs)
        return self

    # -- export ------------------------------------------------------------

    def sample_lines(self) -> List[Tuple[str, str]]:
        """Every metric's ``(rendered_key, value)`` pairs, sorted."""
        out: List[Tuple[str, str]] = []
        for metric in self._metrics.values():
            out.extend(metric.sample_lines())
        out.sort()
        return out

    def snapshot(self) -> Dict[str, str]:
        """Point-in-time values keyed by rendered metric name."""
        return dict(self.sample_lines())

    def delta(self, earlier: Dict[str, str]) -> Dict[str, Tuple[str, str]]:
        """Changes vs an earlier :meth:`snapshot`:
        ``{key: (before, after)}`` for every key that differs."""
        now = self.snapshot()
        keys = set(now) | set(earlier)
        return {k: (earlier.get(k, ""), now.get(k, ""))
                for k in sorted(keys) if earlier.get(k) != now.get(k)}

    def dump(self) -> str:
        """Canonical flat text dump, one ``key value`` per line."""
        return "\n".join(f"{k} {v}" for k, v in self.sample_lines())

    def digest(self) -> str:
        """Hex digest of :meth:`dump` -- equal across same-seed runs."""
        return hashlib.sha256(self.dump().encode()).hexdigest()[:16]


class _NullMetric:
    """Accepts every operation, records nothing."""

    __slots__ = ()
    kind = "null"
    value = 0
    count = 0
    total = 0.0
    integral = 0.0

    def incr(self, by: int = 1) -> None:
        pass

    def copy(self) -> "_NullMetric":
        return self

    def merge(self, other) -> "_NullMetric":
        return self

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    def record(self, value: float) -> None:
        pass

    def time_average(self, since: float = 0.0) -> float:
        return 0.0

    def percentile(self, p: float) -> float:
        return float("nan")

    def sample_lines(self) -> List[Tuple[str, str]]:
        return []


#: The shared do-nothing metric instance.
NULL_METRIC = _NullMetric()


class NullMetricsRegistry(MetricsRegistry):
    """No-op registry: every lookup returns :data:`NULL_METRIC`.

    Lets instrumented code hold an unconditional metric handle while the
    benchmark path stays unaffected (nothing is stored or rendered).
    """

    def __init__(self, env=None):
        super().__init__(env)

    def counter(self, name: str, **labels):
        return NULL_METRIC

    def gauge(self, name: str, **labels):
        return NULL_METRIC

    def timeweighted(self, name: str, **labels):
        return NULL_METRIC

    def histogram(self, name: str, **labels):
        return NULL_METRIC


#: A shared no-op registry for unconditional handles.
NULL_REGISTRY = NullMetricsRegistry()
