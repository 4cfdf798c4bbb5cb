"""Tests for the multi-document catalog subsystem (`repro.catalog`)."""

from __future__ import annotations

import json
import sqlite3
import threading

import pytest

from repro.catalog import (
    Catalog,
    CatalogServer,
    CatalogSpec,
    DocumentSpec,
    SqliteBackend,
    build_catalog,
)
from repro.errors import (
    CatalogError,
    ReproError,
    UnknownDocumentError,
    ViewEngineError,
)
from repro.faults import FaultAction, ScriptedFaultPolicy, VirtualClock
from repro.patterns.parse import parse_pattern
from repro.workloads.replay import CatalogReplayConfig, replay_catalog
from repro.workloads.streams import StreamConfig, sample_stream
from repro.xmltree.generate import random_tree
from repro.xmltree.tree import build_tree


@pytest.fixture
def db_path(tmp_path):
    return tmp_path / "catalog.db"


def small_fleet(count=2, size=200, stream_len=40, seed=100):
    docs, streams = {}, {}
    for index in range(count):
        doc_id = f"doc-{index}"
        docs[doc_id] = random_tree(size, seed=seed + index)
        streams[doc_id] = sample_stream(
            StreamConfig(length=stream_len, templates=5), seed=seed + index
        )
    return docs, streams


def advise_fleet(catalog, docs, streams, max_views=3):
    advices = {}
    for doc_id, tree in docs.items():
        catalog.register(doc_id, tree)
        advices[doc_id] = catalog.advise(
            doc_id,
            streams[doc_id].templates,
            weights=streams[doc_id].template_weights(),
            max_views=max_views,
        )
    return advices


# ----------------------------------------------------------------------
# SqliteBackend
# ----------------------------------------------------------------------

class TestSqliteBackend:
    def test_round_trip_and_miss(self, db_path):
        with SqliteBackend(db_path) as backend:
            assert backend.load("d1", "p1") is None
            backend.save("d1", "p1", [3, 1, 2], xpath="a/b")
            assert backend.load("d1", "p1") == [1, 2, 3]
            assert backend.stats.misses == 1
            assert backend.stats.hits == 1
            assert backend.stats.saves == 1

    def test_entries_survive_reopen(self, db_path):
        with SqliteBackend(db_path) as backend:
            backend.save("d1", "p1", [0, 5])
            backend.save_selection("d1", "fp", {"format": 1, "views": []})
        with SqliteBackend(db_path) as backend:
            assert backend.load("d1", "p1") == [0, 5]
            assert backend.load_selection("d1", "fp") == {
                "format": 1,
                "views": [],
            }
            assert backend.durable

    def test_selection_miss_counts(self, db_path):
        with SqliteBackend(db_path) as backend:
            assert backend.load_selection("d1", "nope") is None
            assert backend.stats.selection_misses == 1
            backend.save_selection("d1", "fp", {"views": []})
            assert backend.stats.selection_saves == 1

    def test_invalidate_drops_materializations_and_selections(self, db_path):
        with SqliteBackend(db_path) as backend:
            backend.save("d1", "p1", [1])
            backend.save("d2", "p1", [2])
            backend.save_selection("d1", "fp", {"views": []})
            backend.invalidate_document("d1")
            assert backend.load("d1", "p1") is None
            assert backend.load_selection("d1", "fp") is None
            assert backend.load("d2", "p1") == [2]
            assert backend.stats.invalidations == 1

    def test_reject_loaded_reclassifies(self, db_path):
        with SqliteBackend(db_path) as backend:
            backend.save("d1", "p1", [9])
            assert backend.load("d1", "p1") == [9]
            backend.reject_loaded("d1", "p1")
            assert backend.stats.hits == 0
            assert backend.stats.misses == 1
            assert backend.stats.corrupt_records == 1
            assert backend.load("d1", "p1") is None

    def test_corrupt_row_degrades_to_miss(self, db_path):
        with SqliteBackend(db_path) as backend:
            backend.save("d1", "p1", [1, 2])
        conn = sqlite3.connect(db_path)
        conn.execute(
            "UPDATE materializations SET ids = 'not-json' WHERE doc = 'd1'"
        )
        conn.commit()
        conn.close()
        with SqliteBackend(db_path) as backend:
            assert backend.load("d1", "p1") is None
            assert backend.stats.corrupt_records == 1
            assert backend.stats.misses == 1
            # The corrupt row was dropped; a fresh save repairs it.
            backend.save("d1", "p1", [1, 2])
            assert backend.load("d1", "p1") == [1, 2]

    def test_closed_backend_raises_typed_error(self, db_path):
        backend = SqliteBackend(db_path)
        backend.close()
        backend.close()  # idempotent
        with pytest.raises(CatalogError):
            backend.load("d1", "p1")


class TestSqlitePrune:
    """PR 9: TTL eviction of rows no registered document can load."""

    def test_ttl_boundary_with_injected_clock(self, db_path):
        clock = VirtualClock(start=100.0)
        with SqliteBackend(db_path, clock=clock) as backend:
            backend.save("dead", "p1", [1])
            clock.advance(50.0)
            backend.save("dead", "p2", [2])
            # At t=150 with ttl=50, the cutoff is exactly the first
            # row's stamp (inclusive): it goes, the fresh row stays.
            assert backend.prune(set(), ttl_seconds=50.0) == 1
            assert backend.stats.evicted_rows == 1
            assert backend.load("dead", "p1") is None
            assert backend.load("dead", "p2") == [2]

    def test_live_digests_survive_any_age(self, db_path):
        clock = VirtualClock(start=0.0)
        with SqliteBackend(db_path, clock=clock) as backend:
            backend.save("live", "p1", [1])
            backend.save("dead", "p1", [2])
            backend.save_selection("live", "fp", {"views": []})
            backend.save_selection("dead", "fp", {"views": []})
            clock.advance(10_000.0)
            evicted = backend.prune({"live"})
            assert evicted == 2  # dead's row in each table
            assert backend.load("live", "p1") == [1]
            assert backend.load_selection("live", "fp") == {"views": []}
            assert backend.load("dead", "p1") is None

    def test_injected_fault_degrades_without_deleting(self, db_path):
        policy = ScriptedFaultPolicy(
            backend={
                ("prune", 0): FaultAction(
                    "error", exc=sqlite3.OperationalError("disk gone")
                )
            }
        )
        with SqliteBackend(db_path, fault_policy=policy) as backend:
            backend.save("dead", "p1", [1])
            assert backend.prune(set()) == 0
            assert backend.stats.io_errors == 1
            assert backend.stats.evicted_rows == 0
            assert backend.load("dead", "p1") == [1]  # nothing deleted
            assert backend.prune(set()) == 1  # unscripted retry works

    def test_legacy_database_migrates_in_place(self, db_path):
        conn = sqlite3.connect(db_path)
        conn.execute(
            "CREATE TABLE materializations (doc TEXT NOT NULL, "
            "pat TEXT NOT NULL, xpath TEXT NOT NULL DEFAULT '', "
            "ids TEXT NOT NULL, PRIMARY KEY (doc, pat))"
        )
        conn.execute(
            "CREATE TABLE selections (doc TEXT NOT NULL, fp TEXT NOT "
            "NULL, payload TEXT NOT NULL, PRIMARY KEY (doc, fp))"
        )
        conn.execute(
            "INSERT INTO materializations (doc, pat, ids) "
            "VALUES ('old', 'p', '[7]')"
        )
        conn.commit()
        conn.close()
        with SqliteBackend(db_path) as backend:
            assert backend.load("old", "p") == [7]
            # Legacy rows carry stamp 0 — epoch-old, prunable under any
            # real-clock TTL once orphaned.
            assert backend.prune(set(), ttl_seconds=60.0) == 1

    def test_catalog_prune_threads_registered_digests(self, db_path):
        docs, streams = small_fleet(count=2)
        catalog = Catalog(backend=SqliteBackend(db_path))
        try:
            advise_fleet(catalog, docs, streams)
            catalog.backend.save("orphan-digest", "p", [1])
            evicted = catalog.prune(ttl_seconds=0.0)
            assert evicted >= 1
            assert catalog.backend.load("orphan-digest", "p") is None
            # Registered documents still serve from their rows.
            assert catalog.prune(ttl_seconds=0.0) == 0
            doc_id = next(iter(docs))
            query = streams[doc_id].queries[0]
            assert catalog.answer(doc_id, query) is not None
        finally:
            catalog.close()

    def test_catalog_prune_without_backend_support_is_noop(self):
        docs, streams = small_fleet(count=1)
        catalog = Catalog()  # MemoryBackend: no prune method
        try:
            advise_fleet(catalog, docs, streams)
            assert catalog.prune(ttl_seconds=0.0) == 0
        finally:
            catalog.close()


class TestSqliteConcurrency:
    def test_concurrent_readers_under_writer(self, db_path):
        """Threaded load/save on one WAL database (each its own connection)."""
        with SqliteBackend(db_path) as backend:
            for index in range(20):
                backend.save("doc", f"pat-{index}", [index, index + 1])

        errors: list[BaseException] = []
        misreads: list[object] = []
        stop = threading.Event()

        def reader() -> None:
            try:
                with SqliteBackend(db_path) as mine:
                    while not stop.is_set():
                        for index in range(20):
                            loaded = mine.load("doc", f"pat-{index}")
                            # Readers may race the writer below, but a
                            # loaded entry is always complete and valid.
                            if loaded is not None and loaded != sorted(loaded):
                                misreads.append(loaded)
            except BaseException as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        def writer() -> None:
            try:
                with SqliteBackend(db_path) as mine:
                    for round_ in range(15):
                        for index in range(20):
                            mine.save(
                                "doc", f"pat-{index}", [index, index + round_]
                            )
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        writing = threading.Thread(target=writer)
        for thread in readers:
            thread.start()
        writing.start()
        writing.join(timeout=60)
        stop.set()
        for thread in readers:
            thread.join(timeout=60)
        assert not errors, errors
        assert not misreads, misreads
        with SqliteBackend(db_path) as backend:
            assert backend.load("doc", "pat-3") == [3, 17]


# ----------------------------------------------------------------------
# Catalog
# ----------------------------------------------------------------------

class TestCatalog:
    def test_register_and_duplicate(self):
        with Catalog() as catalog:
            catalog.register("bib", build_tree({"a": ["b", "c"]}))
            with pytest.raises(CatalogError):
                catalog.register("bib", build_tree({"a": []}))
            assert catalog.documents() == ["bib"]

    def test_unknown_document_is_typed_not_keyerror(self):
        with Catalog() as catalog:
            catalog.register("known", build_tree({"a": ["b"]}))
            query = parse_pattern("a/b")
            for call in (
                lambda: catalog.answer("nope", query),
                lambda: catalog.answer_many("nope", [query]),
                lambda: catalog.advise("nope", [query]),
                lambda: catalog.route([("known", query), ("nope", query)]),
                lambda: catalog.entry("nope"),
            ):
                with pytest.raises(UnknownDocumentError) as excinfo:
                    call()
                assert not isinstance(excinfo.value, KeyError)
                assert isinstance(excinfo.value, ViewEngineError)
                assert isinstance(excinfo.value, ReproError)

    def test_route_preserves_request_order(self):
        with Catalog() as catalog:
            catalog.register("x", build_tree({"a": [{"b": ["c"]}, "b"]}))
            catalog.register("y", build_tree({"a": ["b"]}))
            requests = [
                ("x", parse_pattern("a/b")),
                ("y", parse_pattern("a/b")),
                ("x", parse_pattern("a/b/c")),
                ("x", parse_pattern("a/b")),  # duplicate: folds with [0]
            ]
            routed = catalog.route(requests)
            assert len(routed.answers) == 4
            assert routed.answers[0] is routed.answers[3]  # shared set
            for (doc_id, query), answer in zip(requests, routed.answers):
                assert answer == catalog.entry(doc_id).store.evaluate(
                    query, doc_id
                )
            assert set(routed.groups) == {"x", "y"}
            assert routed.groups["x"].folded_queries == 1

    def test_advise_cold_then_warm(self, db_path):
        docs, streams = small_fleet()
        with Catalog(db_path=db_path) as catalog:
            advices = advise_fleet(catalog, docs, streams)
            assert all(not advice.warm for advice in advices.values())
            cold_views = {
                doc_id: list(catalog.entry(doc_id).views) for doc_id in docs
            }
            stats = catalog.backend_stats()
            assert stats["selection_saves"] == len(docs)
        with Catalog(db_path=db_path) as catalog:
            advices = advise_fleet(catalog, docs, streams)
            assert all(advice.warm for advice in advices.values())
            warm_views = {
                doc_id: list(catalog.entry(doc_id).views) for doc_id in docs
            }
            stats = catalog.backend_stats()
            assert stats["selection_hits"] == len(docs)
            assert stats["saves"] == 0  # every forest loaded
        assert warm_views == cold_views

    def test_changed_workload_does_not_reuse_selection(self, db_path):
        docs, streams = small_fleet(count=1)
        with Catalog(db_path=db_path) as catalog:
            advise_fleet(catalog, docs, streams)
        with Catalog(db_path=db_path) as catalog:
            catalog.register("doc-0", docs["doc-0"])
            # Different budget -> different fingerprint -> cold advise.
            advice = catalog.advise(
                "doc-0",
                streams["doc-0"].templates,
                weights=streams["doc-0"].template_weights(),
                max_views=2,
            )
            assert not advice.warm

    def test_re_advising_requires_fresh_entry(self):
        docs, streams = small_fleet(count=1)
        with Catalog() as catalog:
            advise_fleet(catalog, docs, streams)
            with pytest.raises(CatalogError):
                catalog.advise("doc-0", streams["doc-0"].templates)

    def test_answer_cache_hits_across_batches(self):
        docs, streams = small_fleet(count=1)
        with Catalog() as catalog:
            advise_fleet(catalog, docs, streams)
            queries = streams["doc-0"].queries[:10]
            first = catalog.answer_many("doc-0", queries)
            second = catalog.answer_many("doc-0", queries)
            engine = catalog.entry("doc-0").engine
            assert engine.stats.answer_cache_hits >= second.distinct_queries
            for a, b in zip(first.answers, second.answers):
                assert a == b

    def test_counters_identical_cold_vs_warm(self, db_path):
        """The same call sequence yields bit-identical catalog counters."""
        docs, streams = small_fleet()

        def run(catalog: Catalog) -> dict:
            from repro.core.containment import clear_cache

            advise_fleet(catalog, docs, streams)
            clear_cache()  # isolate serving from (maybe-skipped) advising
            requests = []
            for position in range(20):
                for doc_id in docs:
                    requests.append(
                        (doc_id, streams[doc_id].queries[position])
                    )
            catalog.route(requests)
            return catalog.counters()

        with Catalog(db_path=db_path) as catalog:
            cold = run(catalog)
        with Catalog(db_path=db_path) as catalog:
            warm = run(catalog)
        assert warm == cold


# ----------------------------------------------------------------------
# CatalogServer
# ----------------------------------------------------------------------

def fleet_spec(db_path, docs, streams, max_views=3) -> CatalogSpec:
    return CatalogSpec(
        documents=tuple(
            DocumentSpec.from_tree(
                doc_id,
                tree,
                streams[doc_id].templates,
                streams[doc_id].template_weights(),
            )
            for doc_id, tree in docs.items()
        ),
        db_path=str(db_path),
        max_views=max_views,
    )


def interleaved(docs, streams, length):
    requests = []
    for position in range(length):
        for doc_id in docs:
            requests.append((doc_id, streams[doc_id].queries[position]))
    return requests


class TestCatalogServer:
    def test_inline_matches_direct_catalog(self, db_path):
        docs, streams = small_fleet()
        spec = fleet_spec(db_path, docs, streams)
        requests = interleaved(docs, streams, 15)
        with CatalogServer(spec, workers=0) as server:
            result = server.serve_requests(requests, batch_size=8)
            counters = server.counters()
        assert result.served == len(requests)
        assert set(counters) == set(docs)
        # Cross-check against an independently built catalog.
        catalog = build_catalog(spec)
        try:
            for (doc_id, query), ids in zip(requests, result.answer_ids):
                expected = catalog.node_ids(
                    doc_id, catalog.entry(doc_id).store.evaluate(query, doc_id)
                )
                assert ids == expected
        finally:
            catalog.close()

    def test_unknown_document_refused_before_any_work(self, db_path):
        docs, streams = small_fleet(count=1)
        spec = fleet_spec(db_path, docs, streams)
        with CatalogServer(spec, workers=0) as server:
            with pytest.raises(UnknownDocumentError):
                server.serve_requests([("ghost", "a/b")])

    def test_closed_server_raises(self, db_path):
        docs, streams = small_fleet(count=1)
        server = CatalogServer(fleet_spec(db_path, docs, streams), workers=0)
        server.close()
        server.close()  # idempotent
        with pytest.raises(CatalogError):
            server.serve_requests([("doc-0", "a")])

    def test_pool_counters_raise_typed_error(self, db_path):
        docs, streams = small_fleet(count=1)
        spec = fleet_spec(db_path, docs, streams)
        server = CatalogServer.__new__(CatalogServer)
        server._catalog = None
        with pytest.raises(CatalogError):
            server.counters()

    @pytest.mark.slow
    def test_pool_parity_with_inline(self, db_path):
        """Process-pool serving returns bit-identical answers to inline."""
        docs, streams = small_fleet(count=2, stream_len=30)
        spec = fleet_spec(db_path, docs, streams)
        requests = interleaved(docs, streams, 30)
        with CatalogServer(spec, workers=0) as inline:
            baseline = inline.serve_requests(requests, batch_size=16)
        with CatalogServer(spec, workers=2) as pooled:
            result = pooled.serve_requests(requests, batch_size=16)
        assert result.counters() == baseline.counters()


# ----------------------------------------------------------------------
# Catalog replay harness
# ----------------------------------------------------------------------

class TestCatalogReplay:
    CONFIG = dict(
        documents=2,
        stream=StreamConfig(length=30, templates=5),
        document_size=200,
        max_views=3,
        batch_size=8,
    )

    def test_counters_bit_identical_memory_cold_warm(self, db_path):
        memory = replay_catalog(CatalogReplayConfig(**self.CONFIG), seed=4)
        cold = replay_catalog(
            CatalogReplayConfig(**self.CONFIG, db_path=db_path), seed=4
        )
        warm = replay_catalog(
            CatalogReplayConfig(**self.CONFIG, db_path=db_path), seed=4
        )
        assert cold.counters() == memory.counters()
        assert warm.counters() == memory.counters()
        assert cold.warm_selections == 0
        assert warm.warm_selections == self.CONFIG["documents"]
        assert warm.backend["selection_hits"] == self.CONFIG["documents"]

    def test_verify_finds_no_mismatches(self):
        report = replay_catalog(
            CatalogReplayConfig(**self.CONFIG, verify=True), seed=4
        )
        assert report.verified_mismatches == 0
        assert report.queries == 60
        assert set(report.per_document) == {"doc-0", "doc-1"}
        for section in report.per_document.values():
            assert (
                section["view_plans"] + section["direct_plans"]
                == section["queries"]
            )
        assert "catalog replay" in report.summary()

    def test_run_to_run_determinism(self):
        first = replay_catalog(CatalogReplayConfig(**self.CONFIG), seed=11)
        second = replay_catalog(CatalogReplayConfig(**self.CONFIG), seed=11)
        assert first.counters() == second.counters()


class TestSpecWeights:
    def test_empty_weights_tuple_surfaces_mismatch(self, db_path):
        """weights=() is an explicit (wrong) value, not 'no weights'."""
        tree = build_tree({"a": ["b", "c"]})
        spec = CatalogSpec(
            documents=(
                DocumentSpec(
                    doc_id="d",
                    xml="<a><b/><c/></a>",
                    workload_xpaths=("a/b",),
                    weights=(),
                ),
            ),
            db_path=str(db_path),
        )
        with pytest.raises(ValueError):
            build_catalog(spec)


# ----------------------------------------------------------------------
# Explicit (curated) views and the tractable_only plumbing
# ----------------------------------------------------------------------

class TestExplicitViews:
    """Curated partial views: the intersection-plan serving regime."""

    QUERY = "a[w][z]/b/c"
    HALVES = ("a[w]/b", "a[z]/b")

    def _document(self):
        return build_tree({"a": ["w", "z", {"b": ["c", "d"]}, "x"]})

    def test_define_views_numbers_and_materializes(self):
        with Catalog() as catalog:
            catalog.register("doc", self._document())
            names = catalog.define_views(
                "doc", [parse_pattern(x) for x in self.HALVES]
            )
            assert names == ["view-0", "view-1"]
            assert catalog.entry("doc").views == names

    def test_advise_refuses_a_document_with_explicit_views(self):
        with Catalog() as catalog:
            catalog.register("doc", self._document())
            catalog.define_views("doc", [parse_pattern(self.HALVES[0])])
            with pytest.raises(CatalogError):
                catalog.advise("doc", [parse_pattern("a/b")])

    def test_intersection_served_through_the_catalog(self):
        with Catalog(tractable_only=False) as catalog:
            catalog.register("doc", self._document())
            catalog.define_views(
                "doc", [parse_pattern(x) for x in self.HALVES]
            )
            query = parse_pattern(self.QUERY)
            entry = catalog.entry("doc")
            assert entry.engine.plan(query, "doc").kind == "intersection"
            expected = entry.store.evaluate(query, "doc")
            assert catalog.answer("doc", query) == expected

    def test_tractable_only_reaches_every_engine(self):
        for toggle in (True, False):
            with Catalog(tractable_only=toggle) as catalog:
                catalog.register("doc", self._document())
                assert catalog.entry("doc").engine.tractable_only is toggle

    def test_spec_round_trips_explicit_views(self, db_path):
        tree = self._document()
        spec = CatalogSpec(
            documents=(
                DocumentSpec.from_tree(
                    "doc",
                    tree,
                    views=[parse_pattern(x) for x in self.HALVES],
                ),
            ),
            db_path=str(db_path),
            tractable_only=False,
        )
        assert spec.documents[0].view_xpaths == self.HALVES
        catalog = build_catalog(spec)
        try:
            assert catalog.entry("doc").views == ["view-0", "view-1"]
            assert catalog.entry("doc").engine.tractable_only is False
            query = parse_pattern(self.QUERY)
            expected = catalog.entry("doc").store.evaluate(query, "doc")
            assert catalog.answer("doc", query) == expected
            routed = catalog.route([("doc", query)])
            assert routed.plans[0].kind == "intersection"
        finally:
            catalog.close()

    def test_server_reports_intersection_plan_kinds(self, db_path):
        spec = CatalogSpec(
            documents=(
                DocumentSpec.from_tree(
                    "doc",
                    self._document(),
                    views=[parse_pattern(x) for x in self.HALVES],
                ),
            ),
            db_path=str(db_path),
            tractable_only=False,
        )
        query = parse_pattern(self.QUERY)
        with CatalogServer(spec, workers=0) as server:
            result = server.serve_requests([("doc", query)])
        assert result.plan_kinds == ["intersection"]
