"""Metrics registry: counters, gauges, fixed-bucket latency histograms.

Built for the same two constraints as the tracing half:

* **Cheap on the hot path.**  A disabled registry hands out shared
  no-op instruments, and the module seam (:func:`current_registry`)
  costs one global read — instrumentation points look the registry up
  once per replay/serve run, not per query.
* **Deterministic.**  The registry never reads wall time on its own;
  the injectable ``clock`` (pair it with
  :class:`repro.faults.VirtualClock`) only drives :meth:`MetricsRegistry.time`
  scopes, so recorded timings replay bit-identically under a virtual
  clock.

The existing per-layer stats objects (``ContainmentStats``,
``EngineStats``, ``ServeStats``, ``ReplicationStats``,
``BackendStats``) stay the source of truth — their snapshots are
*published* into the registry as gauges at well-defined points
(front-end close, replay end, ``Catalog.backend_stats``), which keeps
every pre-existing ``counters()``/``stats_snapshot()`` bit-identity
assertion untouched while giving one exportable surface.  The flat
counter dataclasses among them share :class:`StatsBase` for their
``snapshot()`` and ``reset()``.
"""

from __future__ import annotations

import bisect
import time
from typing import Any, Callable, Mapping, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "StatsBase",
    "install_registry",
    "current_registry",
]

Clock = Callable[[], float]

#: Upper bounds (seconds) for latency histograms — sub-millisecond
#: through multi-second, matching the replay tiers' observed range.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
)


class StatsBase:
    """Base of the flat counter dataclasses (``EngineStats`` and kin).

    :meth:`snapshot` copies the instance dict, so its keys come in field
    order; :meth:`reset` re-runs the dataclass ``__init__``, restoring
    every field's default.  Neither walks ``dataclasses.fields``: the
    engine snapshots its stats twice per batch.
    """

    def snapshot(self) -> dict[str, Any]:
        return self.__dict__.copy()

    def reset(self) -> None:
        self.__init__()


class Counter:
    """Monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Last-written value (published stats snapshots land here)."""

    kind = "gauge"
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram: cumulative-count exposition, exact
    ``sum``/``count``.  Bucket bounds are upper bounds; observations
    above the last bound land in the implicit ``+Inf`` bucket."""

    kind = "histogram"
    __slots__ = ("name", "bounds", "counts", "total", "count")

    def __init__(
        self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError("histogram bucket bounds must be distinct")
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot: +Inf
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.counts[bisect.bisect_left(self.bounds, value)] += 1

    def snapshot(self) -> dict:
        cumulative = []
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            cumulative.append((bound, running))
        return {
            "buckets": cumulative,
            "count": self.count,
            "sum": self.total,
        }


class _NoopCounter:
    kind = "counter"
    __slots__ = ()
    name = "<noop>"
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass


class _NoopGauge:
    kind = "gauge"
    __slots__ = ()
    name = "<noop>"
    value = 0

    def set(self, value: float) -> None:
        pass


class _NoopHistogram:
    kind = "histogram"
    __slots__ = ()
    name = "<noop>"
    bounds: Tuple[float, ...] = ()
    total = 0.0
    count = 0

    def observe(self, value: float) -> None:
        pass

    def snapshot(self) -> dict:
        return {"buckets": [], "count": 0, "sum": 0.0}


_NOOP_COUNTER = _NoopCounter()
_NOOP_GAUGE = _NoopGauge()
_NOOP_HISTOGRAM = _NoopHistogram()


class _Timer:
    __slots__ = ("_clock", "_histogram", "_start")

    def __init__(self, clock: Clock, histogram) -> None:
        self._clock = clock
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = self._clock()
        return self

    def __exit__(self, *exc_info) -> bool:
        self._histogram.observe(self._clock() - self._start)
        return False


class _NoopTimer:
    __slots__ = ()

    def __enter__(self) -> "_NoopTimer":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NOOP_TIMER = _NoopTimer()


class MetricsRegistry:
    """Named instruments, get-or-create, insertion-ordered.

    Asking twice for the same name returns the same instrument; asking
    for an existing name with a different instrument kind raises
    ``ValueError`` (silent kind aliasing would corrupt exposition).
    """

    def __init__(
        self, clock: Optional[Clock] = None, enabled: bool = True
    ) -> None:
        self._clock: Clock = clock if clock is not None else time.monotonic
        self.enabled = enabled
        self._metrics: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Instruments
    # ------------------------------------------------------------------
    def _get(self, name: str, kind: str, factory):
        existing = self._metrics.get(name)
        if existing is not None:
            if existing.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {kind}"
                )
            return existing
        metric = factory()
        self._metrics[name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NOOP_COUNTER
        return self._get(name, "counter", lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return _NOOP_GAUGE
        return self._get(name, "gauge", lambda: Gauge(name))

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        if not self.enabled:
            return _NOOP_HISTOGRAM
        bounds = DEFAULT_LATENCY_BUCKETS if buckets is None else buckets
        return self._get(name, "histogram", lambda: Histogram(name, bounds))

    def time(self, name: str, buckets: Optional[Sequence[float]] = None):
        """Context manager observing elapsed clock time into the named
        histogram."""
        if not self.enabled:
            return _NOOP_TIMER
        return _Timer(self._clock, self.histogram(name, buckets))

    # ------------------------------------------------------------------
    # Publishing existing stats snapshots
    # ------------------------------------------------------------------
    def publish(self, prefix: str, mapping: Mapping[str, Any]) -> None:
        """Flatten a (possibly nested) stats snapshot into gauges.

        Nested dicts recurse with dotted names; bools, lists and other
        non-numeric values are skipped — snapshots stay the source of
        truth for those.
        """
        if not self.enabled:
            return
        for key, value in mapping.items():
            name = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(value, Mapping):
                self.publish(name, value)
            elif isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                continue
            else:
                self.gauge(name).set(value)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def metrics(self) -> Tuple[Tuple[str, Any], ...]:
        return tuple(self._metrics.items())

    def snapshot(self) -> dict:
        """Plain-dict view: counters/gauges by value, histograms by
        their cumulative snapshot."""
        out: dict[str, Any] = {}
        for name, metric in self._metrics.items():
            if metric.kind == "histogram":
                out[name] = metric.snapshot()
            else:
                out[name] = metric.value
        return out


# ----------------------------------------------------------------------
# Module seam
# ----------------------------------------------------------------------

_REGISTRY: Optional[MetricsRegistry] = None


def install_registry(
    registry: Optional[MetricsRegistry],
) -> Optional[MetricsRegistry]:
    """Install (or with ``None``, remove) the process registry; returns
    the previous one so callers can restore it."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous


def current_registry() -> Optional[MetricsRegistry]:
    return _REGISTRY
