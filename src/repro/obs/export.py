"""JSONL trace export.

The format is deterministic for deterministic inputs: payloads
serialize with sorted keys and no float formatting games — so exported
traces diff cleanly between runs and tests can compare them
byte-for-byte.  ``tools/trace_report.py`` reads the export.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, Union

from .tracing import SpanRecord, Tracer

__all__ = [
    "trace_lines",
    "export_traces_jsonl",
    "trace_structure",
]


def _iter_records(
    source: Union[Tracer, Iterable[SpanRecord]]
) -> Iterable[SpanRecord]:
    if isinstance(source, Tracer):
        return source.records()
    return source


def trace_lines(
    source: Union[Tracer, Iterable[SpanRecord]],
    structure_only: bool = False,
) -> Iterator[str]:
    """One compact JSON object per closed span, in close order."""
    for record in _iter_records(source):
        payload = (
            record.structure() if structure_only else record.to_dict()
        )
        yield json.dumps(payload, sort_keys=True, separators=(",", ":"))


def export_traces_jsonl(
    source: Union[Tracer, Iterable[SpanRecord]],
    path: Union[str, Path],
    structure_only: bool = False,
) -> int:
    """Write the JSONL trace export; returns the span count written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for line in trace_lines(source, structure_only=structure_only):
            handle.write(line + "\n")
            count += 1
    return count


def trace_structure(
    source: Union[Tracer, Iterable[SpanRecord]]
) -> list[dict]:
    """The timing-free skeleton — the byte-identity comparison surface
    for same-seed virtual-clock runs."""
    return [record.structure() for record in _iter_records(source)]
