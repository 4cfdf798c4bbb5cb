"""Observability (PR 10): stats snapshots and deterministic spans.

Two records explain where a read's time goes:

* **Stats snapshots** — each layer's own counters
  (``ContainmentStats``, ``EngineStats``, ``ServeStats``,
  ``ReplicationStats``, ``BackendStats``), read as plain
  ``snapshot()``/``counters()`` dicts; the flat ones share
  :class:`~repro.obs.metrics.StatsBase`.
* **Spans** — :func:`install_tracer` / :func:`current_tracer` install
  structured span tracing, off by default.  Trees start at :func:`root`
  (replay entry points) or :meth:`Tracer.start_root` (front-end
  admission); :func:`span` opens one child under the span currently in
  scope and is a no-op otherwise, so instrumented code costs one global
  check when tracing is off.  A batch's span opens once, under one
  member's root (:func:`adopt`), and links the others.

:func:`export_traces_jsonl` writes the spans as JSONL, and the
``tools/trace_report.py`` CLI turns that export into per-layer time
breakdowns.
"""

from .tracing import (
    OpenSpan,
    SpanRecord,
    Tracer,
    adopt,
    current_tracer,
    install_tracer,
    root,
    span,
)
from .export import (
    export_traces_jsonl,
    trace_lines,
    trace_structure,
)

__all__ = [
    "OpenSpan",
    "SpanRecord",
    "Tracer",
    "adopt",
    "current_tracer",
    "install_tracer",
    "root",
    "span",
    "export_traces_jsonl",
    "trace_lines",
    "trace_structure",
]
