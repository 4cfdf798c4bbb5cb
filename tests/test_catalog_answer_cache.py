"""The catalog's answer cache: ``Catalog.answer_many`` by XPath text."""

from __future__ import annotations

import pytest

import repro.catalog.catalog as catalog_module
from repro.catalog import Catalog
from repro.errors import CatalogError
from repro.patterns.parse import parse_pattern
from repro.xmltree.generate import random_tree

XPATHS = ["a//b", "a//b[c]", "a/*", "a//b//d"]


def make_catalog(answer_cache_size=8) -> Catalog:
    catalog = Catalog(answer_cache_size=answer_cache_size)
    catalog.register("doc", random_tree(120, seed=2))
    catalog.define_views("doc", [parse_pattern("a//b")])
    return catalog


def executions(catalog: Catalog) -> int:
    stats = catalog.entry("doc").engine.stats
    return stats.direct_answers + stats.view_answers + stats.intersection_answers


def direct(catalog: Catalog, xpath: str) -> list[int]:
    store = catalog.entry("doc").store
    return store.node_ids("doc", store.evaluate(parse_pattern(xpath), "doc"))


class TestAnswerCache:
    def test_size_zero_disables_the_cache(self):
        with make_catalog(answer_cache_size=0) as catalog:
            first = catalog.answer_many("doc", ["a//b"])
            second = catalog.answer_many("doc", ["a//b"])
            assert first == second
            assert catalog.entry("doc").answer_cache_hits == 0
            assert executions(catalog) == 2
            assert not catalog.entry("doc").answers

    def test_negative_size_rejected(self):
        with pytest.raises(CatalogError):
            Catalog(answer_cache_size=-1)

    def test_repeat_read_served_from_cache(self):
        with make_catalog() as catalog:
            first = catalog.answer_many("doc", ["a//b[c]"])
            before = executions(catalog)
            second = catalog.answer_many("doc", ["a//b[c]"])
            # Equal content, but a fresh list per hit.
            assert second.answers == first.answers
            assert second.answers[0] is not first.answers[0]
            assert second.kinds == first.kinds
            assert catalog.entry("doc").answer_cache_hits == 1
            assert executions(catalog) == before

    def test_cache_spans_batches(self):
        with make_catalog() as catalog:
            first = catalog.answer_many("doc", XPATHS)
            assert catalog.entry("doc").answer_cache_hits == 0
            second = catalog.answer_many("doc", XPATHS)
            assert catalog.entry("doc").answer_cache_hits == len(XPATHS)
            assert second.kinds == first.kinds
            for a, b in zip(first.answers, second.answers):
                assert a == b
                assert a is not b

    def test_mutating_an_answer_never_corrupts_the_cache(self):
        """Both the answer that filled the cache and a hit are the
        caller's to mutate: later hits stay pristine."""
        with make_catalog() as catalog:
            expected = direct(catalog, "a//b[c]")
            catalog.answer_many("doc", ["a//b[c]"]).answers[0].clear()
            second = catalog.answer_many("doc", ["a//b[c]"]).answers[0]
            assert second == expected
            second.append(-1)
            third = catalog.answer_many("doc", ["a//b[c]"]).answers[0]
            assert catalog.entry("doc").answer_cache_hits == 2
            assert third == expected

    def test_lru_bound_holds(self):
        with make_catalog(answer_cache_size=2) as catalog:
            catalog.answer_many("doc", XPATHS)
            # The oldest two were evicted.
            assert list(catalog.entry("doc").answers) == XPATHS[2:]
            catalog.answer_many("doc", [XPATHS[0]])
            assert catalog.entry("doc").answer_cache_hits == 0

    def test_refresh_invalidates_via_digest(self):
        with make_catalog() as catalog:
            store = catalog.entry("doc").store
            stale = catalog.answer_many("doc", ["a//b"]).answers[0]
            # Mutate the document in place, then refresh (the documented
            # mutation contract): the digest moves.
            store.document("doc").root.new_child("b")
            store.refresh("doc")
            fresh = catalog.answer_many("doc", ["a//b"]).answers[0]
            assert catalog.entry("doc").answer_cache_hits == 0
            assert fresh == direct(catalog, "a//b")
            assert fresh != stale

    def test_correctness_against_direct_evaluation(self):
        with make_catalog() as catalog:
            xpaths = XPATHS * 3
            for _ in range(2):  # misses, then hits
                served = catalog.answer_many("doc", xpaths)
                for xpath, answer in zip(xpaths, served.answers):
                    assert answer == direct(catalog, xpath)

    def test_hit_parses_nothing(self, monkeypatch):
        with make_catalog() as catalog:
            catalog.answer_many("doc", XPATHS)
            calls = []

            def counting_parse(xpath):
                calls.append(xpath)
                return parse_pattern(xpath)

            monkeypatch.setattr(catalog_module, "parse_pattern", counting_parse)
            catalog.answer_many("doc", XPATHS)
            assert calls == []
            # A miss repeated within one batch is parsed once.
            catalog.answer_many("doc", ["a/b", "a/b"])
            assert calls == ["a/b"]

    def test_hits_counted_in_engine_counters(self):
        with make_catalog() as catalog:
            catalog.answer_many("doc", XPATHS)
            catalog.answer_many("doc", XPATHS + XPATHS[:1])
            engine = catalog.counters()["doc"]["engine"]
            assert engine["answer_cache_hits"] == len(XPATHS) + 1
            assert engine["answer_cache_hits"] == (
                catalog.entry("doc").answer_cache_hits
            )
