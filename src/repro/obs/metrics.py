"""The shared base of the per-layer stats classes.

Each layer keeps its own counters (``ContainmentStats``,
``EngineStats``, ``ReplicationStats``, ``BackendStats``, the view
cache's stats) and reports them as plain ``snapshot()`` dicts, the
record tests pin bit for bit and perfbench reads.  The flat counter
dataclasses among them share :class:`StatsBase` for their
``snapshot()`` and ``reset()``.
"""

from __future__ import annotations

from typing import Any

__all__ = ["StatsBase"]


class StatsBase:
    """Base of the flat counter dataclasses (``EngineStats`` and kin).

    :meth:`snapshot` copies the instance dict, so its keys come in field
    order; :meth:`reset` re-runs the dataclass ``__init__``, restoring
    every field's default.  Neither walks ``dataclasses.fields``, so a
    snapshot stays cheap on the serving and replay paths.
    """

    def snapshot(self) -> dict[str, Any]:
        return self.__dict__.copy()

    def reset(self) -> None:
        self.__init__()
