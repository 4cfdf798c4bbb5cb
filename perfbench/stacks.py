"""Freshly built serving stacks, timed until they are ready to answer.

A stack is what one timed pass runs on: a :class:`CatalogServer` (inline
or pooled) and, for the replicated workload, a :class:`ReplicaSet` whose
reads the front end routes through.  Every pass gets its own stack, so no
pass inherits caches another pass warmed.
"""

from __future__ import annotations

import gc
import shutil
import time
from pathlib import Path

from repro.catalog.replication import ReplicaSet
from repro.catalog.server import CatalogServer
from repro.patterns.ast import reset_memo_interning

from .fleet import PROBE_XPATH, Fleet


class Stack:
    """One serving stack; ``setup_s`` is its build-to-ready time."""

    def __init__(
        self, fleet: Fleet, *, workers: int, replicas: int, work_dir: Path
    ):
        self.fleet = fleet
        self.probe_requests = [(doc_id, PROBE_XPATH) for doc_id in fleet.doc_ids]
        self.replica_set: ReplicaSet | None = None
        self.server: CatalogServer | None = None
        self._root = work_dir / "replicas" if replicas else None
        if self._root is not None:
            shutil.rmtree(self._root, ignore_errors=True)
        # Each stack starts from the process state a fresh process has:
        # an empty pattern intern table and no containment results or
        # engines left by an earlier pass (the reset clears those too).
        reset_memo_interning()
        gc.collect()
        start = time.perf_counter()
        try:
            self.server = CatalogServer(fleet.spec, workers=workers)
            if replicas:
                self.replica_set = ReplicaSet(
                    fleet.spec, replicas=replicas, root=self._root
                )
            self.probe_answers = self._probe()
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start

    def _probe(self) -> list[list[int]]:
        """Answer the probe on every document through the serving path.

        A pool server returns before its workers exist; each shard builds
        its catalog inside its first task.  Waiting for the probe's
        answers is what makes set-up end only when every worker is built.
        """
        if self.replica_set is not None:
            answers, _kinds = self.replica_set.route(self.probe_requests)
            return answers
        return self.server.serve_requests(self.probe_requests).answer_ids

    def front(self):
        return self.server.serve(replica_set=self.replica_set)

    def catalogs(self):
        """The in-process catalogs that serve reads (none in pool mode)."""
        if self.replica_set is not None:
            return [self.replica_set.writer] + [
                replica.catalog for replica in self.replica_set.replicas()
            ]
        return []

    def engine_counters(self) -> dict[str, int]:
        """Engine counters summed over documents and serving catalogs."""
        if self.replica_set is not None:
            sections = [catalog.counters() for catalog in self.catalogs()]
        elif self.server.workers == 0:
            sections = [self.server.counters()]
        else:
            return {}
        total: dict[str, int] = {}
        for section in sections:
            for doc in section.values():
                for key, value in doc["engine"].items():
                    total[key] = total.get(key, 0) + value
        return total

    def backend_counters(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for catalog in self.catalogs():
            for key, value in catalog.backend.stats.snapshot().items():
                total[key] = total.get(key, 0) + value
        return total

    def log_bytes(self) -> int:
        if self._root is None:
            return 0
        return sum(path.stat().st_size for path in self._root.glob("*.log"))

    def close(self) -> None:
        if self.replica_set is not None:
            self.replica_set.close()
            self.replica_set = None
        if self.server is not None:
            self.server.close()
            self.server = None
        if self._root is not None:
            shutil.rmtree(self._root, ignore_errors=True)
