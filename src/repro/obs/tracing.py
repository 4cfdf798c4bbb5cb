"""Deterministic structured span tracing for the serving stack (PR 10).

Design constraints, in priority order:

1. **Zero cost when off.**  Every instrumentation point funnels through
   :func:`span` / :func:`root`, whose fast path is one module-global
   ``None`` check returning a shared no-op scope.  No tracer installed
   means no allocation and no clock read on the hot path.
2. **Deterministic structure.**  Trace ids, span ids and the open/close
   event sequence numbers are minted from per-tracer counters, never
   from wall time or ``random``.  With the injectable
   :class:`repro.faults.VirtualClock` driving timings, two same-seed
   replay runs produce byte-identical trace *structure* (everything
   except the ``start``/``end`` floats — and even those match under a
   virtual clock).
3. **Each span is recorded once, under one parent.**  The async front
   end serves many admitted requests with one batch dispatch.  The
   batch's span opens once, under its first member's admission root
   (:func:`adopt`), and its ``links`` attribute lists the other
   members' root span ids — span links, as OpenTelemetry defines them.
   So batch-level work is counted once, and every request still owns
   one well-nested tree.

Well-nestedness is assertable without clocks: a parent's ``open_seq``
precedes its children's, and every child's ``close_seq`` precedes its
parent's (``tests/test_obs.py`` leans on exactly that).

The context seam is a :mod:`contextvars` variable holding the one
currently-open span, so spans propagate through ``await`` boundaries
within a task for free.  :func:`span` records **only when a parent is
open** — trees start exclusively at :func:`root` (replay entry points)
or :meth:`Tracer.start_root` (front-end admission), which is what
bounds span volume and keeps un-traced baselines silent.
"""

from __future__ import annotations

import threading
import time
from contextvars import ContextVar
from typing import Any, Callable, NamedTuple, Optional, Tuple

__all__ = [
    "SpanRecord",
    "OpenSpan",
    "Tracer",
    "install_tracer",
    "current_tracer",
    "span",
    "root",
    "adopt",
]

Clock = Callable[[], float]


class SpanRecord(NamedTuple):
    """One closed span.  ``structure()`` drops the two timing floats —
    what remains is the deterministic skeleton tests compare."""

    trace_id: int
    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float
    open_seq: int
    close_seq: int
    attrs: dict

    @property
    def duration(self) -> float:
        return self.end - self.start

    def structure(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "open_seq": self.open_seq,
            "close_seq": self.close_seq,
            "attrs": dict(sorted(self.attrs.items())),
        }

    def to_dict(self) -> dict:
        payload = self.structure()
        payload["start"] = self.start
        payload["end"] = self.end
        return payload


class OpenSpan:
    """A span opened but not yet closed.  Mutating ``attrs`` via
    :meth:`set` is the way instrumentation points annotate outcomes
    (plan kind, cache hit, failure-ladder rung) discovered mid-span."""

    __slots__ = (
        "_tracer",
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start",
        "open_seq",
        "attrs",
    )

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start: float,
        open_seq: int,
        attrs: dict,
    ) -> None:
        self._tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.open_seq = open_seq
        self.attrs = attrs

    def set(self, **attrs: Any) -> "OpenSpan":
        self.attrs.update(attrs)
        return self

    def close(self, **attrs: Any) -> None:
        if attrs:
            self.attrs.update(attrs)
        self._tracer._close(self)


class Tracer:
    """Collects spans; all ids/sequence numbers are per-tracer counters.

    Thread-safe (the replica tier may execute synchronously on foreign
    threads), but the determinism contract only holds for
    single-event-loop runs on an inline front end whose clock is a
    :class:`~repro.faults.VirtualClock` that the producer advances.
    """

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self._clock: Clock = clock if clock is not None else time.monotonic
        self._lock = threading.Lock()
        self._records: list[SpanRecord] = []
        self._traces = 0
        self._spans = 0
        self._events = 0

    # ------------------------------------------------------------------
    # Minting
    # ------------------------------------------------------------------
    def start_root(self, name: str, **attrs: Any) -> OpenSpan:
        """Open a new trace with its root span; the caller closes it."""
        with self._lock:
            self._traces += 1
            return self._open_locked(name, self._traces, None, attrs)

    def _open_child(
        self, name: str, parent: OpenSpan, attrs: dict
    ) -> OpenSpan:
        with self._lock:
            return self._open_locked(
                name, parent.trace_id, parent.span_id, attrs
            )

    def _open_locked(
        self, name: str, trace_id: int, parent_id: Optional[int], attrs: dict
    ) -> OpenSpan:
        self._spans += 1
        self._events += 1
        return OpenSpan(
            self,
            trace_id,
            self._spans,
            parent_id,
            name,
            self._clock(),
            self._events,
            attrs,
        )

    def _close(self, open_span: OpenSpan) -> None:
        with self._lock:
            end = self._clock()
            self._events += 1
            self._records.append(
                SpanRecord(
                    open_span.trace_id,
                    open_span.span_id,
                    open_span.parent_id,
                    open_span.name,
                    open_span.start,
                    end,
                    open_span.open_seq,
                    self._events,
                    open_span.attrs,
                )
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def records(self) -> Tuple[SpanRecord, ...]:
        """Closed spans, in close order."""
        with self._lock:
            return tuple(self._records)


# ----------------------------------------------------------------------
# Module seam: the installed tracer + the open-parent context
# ----------------------------------------------------------------------

_ACTIVE: Optional[Tracer] = None
_CONTEXT: ContextVar[Optional[OpenSpan]] = ContextVar(
    "repro_obs_parent", default=None
)


def install_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install (or with ``None``, remove) the process tracer; returns
    the previous one so callers can restore it."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


def current_tracer() -> Optional[Tracer]:
    return _ACTIVE


class _NoopScope:
    """Shared do-nothing scope: the disabled hot path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopScope":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NoopScope":
        return self


_NOOP = _NoopScope()


class _SpanScope:
    """One span, opened under its parent and the open span until exit.

    The parent is the one given (:func:`adopt`) or, failing that, the
    span open in the current context; with neither, nothing records.
    """

    __slots__ = ("_name", "_attrs", "_parent", "_span", "_token")

    def __init__(
        self, name: str, attrs: dict, parent: Optional[OpenSpan] = None
    ) -> None:
        self._name = name
        self._attrs = attrs
        self._parent = parent
        self._span: Optional[OpenSpan] = None
        self._token = None

    def __enter__(self) -> "_SpanScope":
        parent = self._parent or _CONTEXT.get()
        if parent is not None:
            self._span = parent._tracer._open_child(
                self._name, parent, self._attrs
            )
            self._token = _CONTEXT.set(self._span)
        return self

    def set(self, **attrs: Any) -> "_SpanScope":
        if self._span is not None:
            self._span.attrs.update(attrs)
        return self

    def __exit__(self, *exc_info) -> bool:
        if self._span is not None:
            _CONTEXT.reset(self._token)
            self._span.close()
            self._span = self._token = None
        return False


class _RootScope(_SpanScope):
    """Root scope: starts a fresh trace whatever span is open."""

    __slots__ = ()

    def __enter__(self) -> "_RootScope":
        tracer = _ACTIVE
        if tracer is not None:
            self._span = tracer.start_root(self._name, **self._attrs)
            self._token = _CONTEXT.set(self._span)
        return self


def span(name: str, **attrs: Any):
    """A child scope under the open span; records nothing when no
    tracer is installed *or* no span is open (trees start at
    :func:`root` / :meth:`Tracer.start_root` only)."""
    if _ACTIVE is None:
        return _NOOP
    return _SpanScope(name, attrs)


def root(name: str, **attrs: Any):
    """A scope starting a brand-new trace (replay entry points)."""
    if _ACTIVE is None:
        return _NOOP
    return _RootScope(name, attrs)


def adopt(parent: Optional[OpenSpan], name: str, **attrs: Any):
    """A child scope of ``parent``, an already-open span, whatever span
    is open in the current context; with ``None``, a no-op.

    The async front end's dispatch path uses this: a batch's span opens
    under its first member's admission root, which the batch adopts.
    """
    if parent is None:
        return _NOOP
    return _SpanScope(name, attrs, parent)
