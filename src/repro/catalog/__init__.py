"""Multi-document catalog subsystem: durable view catalogs and routing.

The layer above :mod:`repro.views` for the many-documents regime:

* :class:`~repro.catalog.catalog.Catalog` — documents registered by id,
  one ``ViewStore``/``QueryEngine`` per document over one shared
  backend, a typed-error router for ``(document, query)`` requests and
  digest-validated cross-batch answer caching.  A durable catalog runs
  on the snapshot log, ``Catalog(backend=SnapshotBackend(path))``
  (:mod:`repro.views.persist`), which also keeps the advisor's
  *selection records* for warm starts;
* :class:`~repro.catalog.server.CatalogServer` — batch sharding across
  a process pool (planning is CPU-bound), with a deterministic
  single-process mode that keeps counters regression-testable;
* :class:`~repro.catalog.serving.AsyncFrontEnd` — the asyncio serving
  tier over the server (:meth:`CatalogServer.serve
  <repro.catalog.server.CatalogServer.serve>`): bounded admission with
  backpressure or rejection, per-document round-robin fairness,
  deadline shedding against injectable clocks, a retry-once /
  degrade-to-inline failure ladder, and graceful drain on close;
* :class:`~repro.catalog.replication.ReplicaSet` — the replicated read
  tier (PR 9): one writer ships its seqno'd snapshot log to N read
  replicas that warm-start from the shipped state, serve reads
  round-robin under a bounded-staleness contract, and fail over
  (crash → evict → sibling → writer-inline) deterministically under
  the fault seam.

See ``docs/architecture.md`` ("Catalog layer", "PR 8 — serving tier",
"PR 9 — replicated read tier") for the design notes and
``benchmarks/bench_catalog.py`` for the recorded numbers.
"""

from .catalog import Catalog, CatalogAdvice, CatalogEntry, RoutedAnswer
from .replication import Replica, ReplicaSet, ReplicationStats
from .server import (
    CatalogServeResult,
    CatalogServer,
    CatalogSpec,
    DocumentSpec,
    build_catalog,
)
from .serving import AsyncFrontEnd, ServeStats

__all__ = [
    "AsyncFrontEnd",
    "Catalog",
    "CatalogAdvice",
    "CatalogEntry",
    "CatalogServeResult",
    "CatalogServer",
    "CatalogSpec",
    "DocumentSpec",
    "Replica",
    "ReplicaSet",
    "ReplicationStats",
    "RoutedAnswer",
    "ServeStats",
    "build_catalog",
]
