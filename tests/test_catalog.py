"""Tests for the multi-document catalog subsystem (`repro.catalog`)."""

from __future__ import annotations

import pytest

from repro.catalog import (
    Catalog,
    CatalogServer,
    CatalogSpec,
    DocumentSpec,
    build_catalog,
)
from repro.errors import (
    CatalogError,
    ReproError,
    UnknownDocumentError,
    ViewEngineError,
)
from repro.patterns.parse import parse_pattern
from repro.patterns.serialize import to_xpath
from repro.views.persist import SnapshotBackend
from repro.workloads.replay import CatalogReplayConfig, replay_catalog
from repro.workloads.streams import StreamConfig, sample_stream
from repro.xmltree.generate import random_tree
from repro.xmltree.tree import build_tree

from .oracle import direct_answers


@pytest.fixture
def log_path(tmp_path):
    return tmp_path / "catalog.log"


def durable(path) -> Catalog:
    """A catalog on the snapshot log at ``path``."""
    return Catalog(backend=SnapshotBackend(path))


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
                lambda: catalog.answer_many("nope", ["a/b"]),
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

    def test_advise_cold_then_warm(self, log_path):
        docs, streams = small_fleet()
        with durable(log_path) as catalog:
            advices = advise_fleet(catalog, docs, streams)
            assert all(not advice.warm for advice in advices.values())
            cold_views = {
                doc_id: list(catalog.entry(doc_id).views) for doc_id in docs
            }
            stats = catalog.backend_stats()
            assert stats["selection_saves"] == len(docs)
        with durable(log_path) as catalog:
            advices = advise_fleet(catalog, docs, streams)
            assert all(advice.warm for advice in advices.values())
            warm_views = {
                doc_id: list(catalog.entry(doc_id).views) for doc_id in docs
            }
            stats = catalog.backend_stats()
            assert stats["selection_hits"] == len(docs)
            assert stats["saves"] == 0  # every forest loaded
        assert warm_views == cold_views

    def test_changed_workload_does_not_reuse_selection(self, log_path):
        docs, streams = small_fleet(count=1)
        with durable(log_path) as catalog:
            advise_fleet(catalog, docs, streams)
        with durable(log_path) as catalog:
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
            xpaths = [to_xpath(q) for q in streams["doc-0"].queries[:10]]
            first = catalog.answer_many("doc-0", xpaths)
            executed = catalog.entry("doc-0").engine.stats.snapshot()
            second = catalog.answer_many("doc-0", xpaths)
            # Every read of the second batch is a hit: nothing is
            # planned or executed again.
            assert catalog.entry("doc-0").answer_cache_hits == len(xpaths)
            assert catalog.entry("doc-0").engine.stats.snapshot() == executed
            assert second.answers == first.answers
            assert second.kinds == first.kinds
            assert second.folded_queries == 0  # hits are not folds

    def test_counters_identical_cold_vs_warm(self, log_path):
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

        with durable(log_path) as catalog:
            cold = run(catalog)
        with durable(log_path) as catalog:
            warm = run(catalog)
        assert warm == cold

    def test_restart_after_refresh_loads_every_view(self, log_path):
        """Regression: a refresh must leave the current rows loadable.

        After a refresh that changed the document's shape, a restarted
        catalog over the edited document loads every view instead of
        re-evaluating it.
        """
        tree = build_tree({"a": [{"b": ["c"]}, "b"]})
        views = [parse_pattern("a/b"), parse_pattern("a//c")]
        with durable(log_path) as catalog:
            catalog.register("doc", tree)
            catalog.define_views("doc", views)
            tree.root.new_child("b")
            catalog.entry("doc").store.refresh("doc")
        with durable(log_path) as catalog:
            catalog.register("doc", tree)
            catalog.define_views("doc", views)
            stats = catalog.backend_stats()
            assert stats["hits"] == len(views)
            assert stats["saves"] == 0

    def test_digest_follows_refresh(self, log_path):
        """Regression: the catalog's digest went stale after a refresh.

        ``document_digest``, ``counters()`` and the key ``advise``
        persists its selection under all read the store's current
        digest, so a restart over the edited document warm-starts.
        """
        docs, streams = small_fleet(count=1)
        tree = docs["doc-0"]
        with durable(log_path) as catalog:
            catalog.register("doc-0", tree)
            registered = catalog.document_digest("doc-0")
            tree.root.new_child("b")
            store = catalog.entry("doc-0").store
            store.refresh("doc-0")
            current = store.document_digest("doc-0")
            assert current != registered
            assert catalog.document_digest("doc-0") == current
            assert catalog.counters()["doc-0"]["digest"] == current
            catalog.advise(
                "doc-0",
                streams["doc-0"].templates,
                weights=streams["doc-0"].template_weights(),
                max_views=3,
            )
        with durable(log_path) as catalog:
            (advice,) = advise_fleet(
                catalog, {"doc-0": tree}, streams
            ).values()
            assert advice.warm


# ----------------------------------------------------------------------
# CatalogServer
# ----------------------------------------------------------------------

def fleet_spec(docs, streams, max_views=3) -> CatalogSpec:
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
        max_views=max_views,
    )


def interleaved(docs, streams, length):
    requests = []
    for position in range(length):
        for doc_id in docs:
            requests.append((doc_id, streams[doc_id].queries[position]))
    return requests


class TestCatalogServer:
    def test_inline_matches_direct_catalog(self):
        docs, streams = small_fleet()
        spec = fleet_spec(docs, streams)
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

    def test_unknown_document_refused_before_any_work(self):
        docs, streams = small_fleet(count=1)
        spec = fleet_spec(docs, streams)
        with CatalogServer(spec, workers=0) as server:
            with pytest.raises(UnknownDocumentError):
                server.serve_requests([("ghost", "a/b")])

    def test_closed_server_raises(self):
        docs, streams = small_fleet(count=1)
        server = CatalogServer(fleet_spec(docs, streams), workers=0)
        server.close()
        server.close()  # idempotent
        with pytest.raises(CatalogError):
            server.serve_requests([("doc-0", "a")])

    def test_pool_counters_raise_typed_error(self):
        docs, streams = small_fleet(count=1)
        spec = fleet_spec(docs, streams)
        # A pool server starts no worker until its first batch.
        with CatalogServer(spec, workers=1) as server:
            with pytest.raises(CatalogError):
                server.counters()

    def test_inline_counters_before_any_serve_are_fresh(self):
        docs, streams = small_fleet()
        spec = fleet_spec(docs, streams)
        with CatalogServer(spec, workers=0) as server:
            counters = server.counters()
        catalog = build_catalog(spec)
        try:
            assert counters == catalog.counters()
        finally:
            catalog.close()
        assert set(counters) == set(docs)
        for section in counters.values():
            assert not any(section["engine"].values())

    def test_bad_spec_raises_at_first_inline_use(self):
        spec = CatalogSpec(
            documents=(
                DocumentSpec(
                    doc_id="d",
                    xml="<a><b/><c/></a>",
                    workload_xpaths=("a/b",),
                    weights=(),
                ),
            ),
        )
        with CatalogServer(spec, workers=0) as server:
            with pytest.raises(ValueError):
                server.serve_requests([("d", "a/b")])

    @pytest.mark.slow
    def test_pool_parity_with_inline(self):
        """Process-pool serving returns bit-identical answers to inline."""
        docs, streams = small_fleet(count=2, stream_len=30)
        spec = fleet_spec(docs, streams)
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

    def test_counters_bit_identical_memory_cold_warm(self, log_path):
        memory = replay_catalog(CatalogReplayConfig(**self.CONFIG), seed=4)
        cold = replay_catalog(
            CatalogReplayConfig(**self.CONFIG, persist_path=log_path), seed=4
        )
        warm = replay_catalog(
            CatalogReplayConfig(**self.CONFIG, persist_path=log_path), seed=4
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
    def test_empty_weights_tuple_surfaces_mismatch(self):
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

    def test_spec_round_trips_explicit_views(self):
        tree = self._document()
        spec = CatalogSpec(
            documents=(
                DocumentSpec.from_tree(
                    "doc",
                    tree,
                    views=[parse_pattern(x) for x in self.HALVES],
                ),
            ),
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

    @pytest.mark.parametrize(
        "workers", [0, pytest.param(1, marks=pytest.mark.multicore)]
    )
    def test_server_reports_intersection_plan_kinds(self, workers):
        """The inline catalog and a pool worker both plan and serve the
        intersection, and its answer is ``P(t)``."""
        spec = CatalogSpec(
            documents=(
                DocumentSpec.from_tree(
                    "doc",
                    self._document(),
                    views=[parse_pattern(x) for x in self.HALVES],
                ),
            ),
            tractable_only=False,
        )
        query = parse_pattern(self.QUERY)
        with CatalogServer(spec, workers=workers) as server:
            result = server.serve_requests([("doc", query)])
        assert result.plan_kinds == ["intersection"]
        assert result.answer_ids == direct_answers(spec, "doc", [self.QUERY])
        assert result.answer_ids[0]
