"""Replicated read tier tests (PR 9): shipping, fencing, failover.

Everything is deterministic: crashes are scripted through
:meth:`~repro.faults.FaultPolicy.on_replica`, staleness ages against a
:class:`~repro.faults.VirtualClock`, and the acceptance soak asserts
*exact* crash/retry/degrade counters across two same-seed runs — the
replica tier's recovery is reproducible, not a flake budget.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.catalog import CatalogServer, CatalogSpec, DocumentSpec, ReplicaSet
from repro.errors import (
    CatalogError,
    ReplicaLagError,
    UnknownDocumentError,
)
from repro.faults import FaultAction, ScriptedFaultPolicy, VirtualClock
from repro.patterns.parse import parse_pattern
from repro.patterns.serialize import to_xpath
from repro.workloads.replay import ServeReplayConfig, replay_serve
from repro.workloads.streams import StreamConfig, sample_stream
from repro.xmltree.generate import random_tree

from .oracle import direct_answers, direct_request_answers

pytestmark = pytest.mark.replica

DOCUMENTS = 2
SAMPLED = 4
#: Appended to every document's pool: the sampled templates select
#: nothing on 130-node trees, so without these the direct-evaluation
#: checks would only ever compare empty answers.
BROAD = ("*//b", "*//a/*")
QUERY_POOL = SAMPLED + len(BROAD)


@pytest.fixture(scope="module")
def fleet():
    """A two-document spec plus per-document XPath pools."""
    documents = []
    xpaths: dict[str, list[str]] = {}
    for index in range(DOCUMENTS):
        doc_id = f"doc-{index}"
        tree = random_tree(130, seed=900 + index)
        sample = sample_stream(
            StreamConfig(length=SAMPLED, templates=4), seed=900 + index
        )
        xpaths[doc_id] = [
            to_xpath(entry.query) for entry in sample.entries
        ] + list(BROAD)
        documents.append(
            DocumentSpec.from_tree(
                doc_id, tree, sample.templates, sample.template_weights()
            )
        )
    spec = CatalogSpec(documents=tuple(documents), max_views=2)
    return spec, xpaths


def make_set(spec, tmp_path, **kwargs) -> ReplicaSet:
    kwargs.setdefault("replicas", 2)
    return ReplicaSet(spec, root=tmp_path / "set", **kwargs)


class TestBootstrap:
    def test_replicas_warm_start_and_match_writer(self, fleet, tmp_path):
        spec, xpaths = fleet
        with make_set(spec, tmp_path) as rs:
            for replica in rs.replicas():
                assert replica.warm, "replica advised cold — shipping failed"
                assert rs.lag_records(replica.index) == 0
                # Replicas load shipped materializations; they never
                # save their own (the writer is the only producer).
                assert replica.backend.stats.saves == 0
                assert replica.backend.stats.selection_saves == 0
            for doc_id, pool in sorted(xpaths.items()):
                ids, _ = rs.execute(doc_id, pool)
                assert ids == direct_answers(spec, doc_id, pool)
            assert rs.stats.replica_answers == DOCUMENTS * QUERY_POOL

    def test_db_path_spec_rejected(self, fleet, tmp_path):
        spec, _ = fleet
        specced = CatalogSpec(
            documents=spec.documents,
            max_views=spec.max_views,
            db_path=tmp_path / "catalog.db",
        )
        with pytest.raises(CatalogError):
            ReplicaSet(specced, root=tmp_path / "set")

    def test_needs_at_least_one_replica(self, fleet, tmp_path):
        spec, _ = fleet
        with pytest.raises(CatalogError):
            ReplicaSet(spec, replicas=0, root=tmp_path / "set")


class TestShipping:
    def test_define_views_ships_through(self, fleet, tmp_path):
        spec, xpaths = fleet
        with make_set(spec, tmp_path) as rs:
            names = rs.define_views("doc-0", [parse_pattern("a//b")])
            assert names
            assert all(
                rs.lag_records(replica.index) == 0
                for replica in rs.replicas()
            )
            assert rs.stats.records_shipped > 0
            ids, _ = rs.execute("doc-0", xpaths["doc-0"])
            assert ids == direct_answers(spec, "doc-0", xpaths["doc-0"])

    def test_sync_without_new_writes_ships_nothing(self, fleet, tmp_path):
        spec, _ = fleet
        with make_set(spec, tmp_path) as rs:
            assert rs.sync() == {0: 0, 1: 0}
            assert rs.stats.syncs == 1
            assert rs.stats.records_shipped == 0

    def test_ship_fault_skips_replica_until_next_sync(self, fleet, tmp_path):
        spec, _ = fleet
        policy = ScriptedFaultPolicy(
            replica={("ship", 0): FaultAction("crash")}
        )
        with make_set(spec, tmp_path, fault_policy=policy) as rs:
            rs.writer.define_views("doc-0", [parse_pattern("a//b")])
            first = rs.sync()
            assert 0 not in first and rs.stats.ship_failures == 1
            assert rs.lag_records(0) > 0 and rs.lag_records(1) == 0
            second = rs.sync()  # unscripted: the skipped ship retries
            assert second[0] > 0 and rs.lag_records(0) == 0

    def test_gap_across_compaction_forces_reship(self, fleet, tmp_path):
        spec, xpaths = fleet
        with make_set(spec, tmp_path) as rs:
            # Supersede a record on the writer, then compact: the
            # superseded seqno vanishes from the log, so the replicas'
            # incremental tails have a hole — catch-up must detect the
            # gap and fall back to a full re-ship.
            rs._writer_backend.save("doc-zz", "pat-zz", [1])
            rs._writer_backend.save("doc-zz", "pat-zz", [1, 2])
            rs._writer_backend.compact()
            rs.sync()
            assert rs.stats.gaps_detected == 2
            assert rs.stats.reships == 2
            assert all(
                rs.lag_records(replica.index) == 0
                for replica in rs.replicas()
            )
            ids, _ = rs.execute("doc-0", xpaths["doc-0"])
            assert ids == direct_answers(spec, "doc-0", xpaths["doc-0"])


class TestLagFencing:
    def test_record_lag_fences_until_sync(self, fleet, tmp_path):
        spec, xpaths = fleet
        with make_set(spec, tmp_path, max_lag_records=0) as rs:
            rs.writer.define_views("doc-0", [parse_pattern("a//b")])
            assert rs.lag_records(0) > 0
            ids, _ = rs.execute("doc-0", xpaths["doc-0"])
            assert ids == direct_answers(spec, "doc-0", xpaths["doc-0"])
            # Both replicas fenced; nobody was evicted for being stale.
            assert rs.stats.lag_fenced == 2
            assert rs.stats.writer_fallbacks == 1
            assert rs.stats.evictions == 0
            assert rs.healthy_count() == 2
            rs.sync()
            rs.execute("doc-0", xpaths["doc-0"])
            assert rs.stats.replica_answers == QUERY_POOL

    def test_seconds_lag_fences_against_virtual_clock(self, fleet, tmp_path):
        spec, xpaths = fleet
        clock = VirtualClock()
        with make_set(
            spec, tmp_path, max_lag_seconds=10.0, clock=clock
        ) as rs:
            rs.execute("doc-0", xpaths["doc-0"][:1])
            assert rs.stats.lag_fenced == 0
            clock.advance(11.0)
            rs.execute("doc-0", xpaths["doc-0"][:1])
            assert rs.stats.lag_fenced == 2
            assert rs.stats.writer_fallbacks == 1
            rs.sync()  # refreshes synced_at on the virtual clock
            rs.execute("doc-0", xpaths["doc-0"][:1])
            assert rs.stats.writer_fallbacks == 1  # replicas serve again

    def test_check_lag_is_typed(self, fleet, tmp_path):
        spec, _ = fleet
        with make_set(spec, tmp_path, max_lag_records=0) as rs:
            rs.writer.define_views("doc-0", [parse_pattern("a//b")])
            with pytest.raises(ReplicaLagError):
                rs._check_lag(rs.replicas()[0])


class TestFailureLadder:
    def test_crash_evicts_and_fails_over_to_sibling(self, fleet, tmp_path):
        spec, xpaths = fleet
        policy = ScriptedFaultPolicy(
            replica={("serve", 0): FaultAction("crash")}
        )
        with make_set(spec, tmp_path, fault_policy=policy) as rs:
            ids, _ = rs.execute("doc-0", xpaths["doc-0"])
            assert ids == direct_answers(spec, "doc-0", xpaths["doc-0"])
            assert rs.stats.replica_crashes == 1
            assert rs.stats.evictions == 1
            assert rs.stats.failover_retries == 1
            assert rs.stats.writer_fallbacks == 0
            assert rs.healthy_count() == 1
            assert policy.injected == [
                ("replica.serve[0]", FaultAction("crash"))
            ]

    def test_all_replicas_down_degrades_to_writer(self, fleet, tmp_path):
        spec, xpaths = fleet
        policy = ScriptedFaultPolicy(
            replica={
                ("serve", 0): FaultAction("crash"),
                ("serve", 1): FaultAction("crash"),
            }
        )
        with make_set(spec, tmp_path, fault_policy=policy) as rs:
            ids, _ = rs.execute("doc-0", xpaths["doc-0"])
            assert rs.healthy_count() == 0
            assert rs.stats.writer_fallbacks == 1
            assert rs.stats.writer_answers == QUERY_POOL
            assert ids == direct_answers(spec, "doc-0", xpaths["doc-0"])
            # Zero replicas left: later batches go straight to the writer.
            rs.execute("doc-1", xpaths["doc-1"])
            assert rs.stats.writer_fallbacks == 2

    def test_injected_error_propagates_to_caller(self, fleet, tmp_path):
        spec, xpaths = fleet
        policy = ScriptedFaultPolicy(
            replica={
                ("serve", 0): FaultAction(
                    "error", exc=RuntimeError("poisoned batch")
                )
            }
        )
        with make_set(spec, tmp_path, fault_policy=policy) as rs:
            with pytest.raises(RuntimeError):
                rs.execute("doc-0", xpaths["doc-0"])
            # A request failure is not an availability event.
            assert rs.healthy_count() == 2
            assert rs.stats.evictions == 0

    def test_restart_reships_and_rejoins(self, fleet, tmp_path):
        spec, xpaths = fleet
        policy = ScriptedFaultPolicy(
            replica={("serve", 0): FaultAction("crash")}
        )
        with make_set(spec, tmp_path, fault_policy=policy) as rs:
            rs.execute("doc-0", xpaths["doc-0"])
            assert rs.healthy_count() == 1
            rs.writer.define_views("doc-0", [parse_pattern("a//b")])
            evicted = [r.index for r in rs.replicas() if not r.healthy][0]
            assert rs.restart(evicted) is True
            assert rs.healthy_count() == 2
            assert rs.stats.rejoins == 1
            assert rs.lag_records(evicted) == 0  # re-ship caught it up

    def test_restart_under_ship_fault_fails_closed(self, fleet, tmp_path):
        spec, _ = fleet
        policy = ScriptedFaultPolicy(
            replica={("ship", 0): FaultAction("crash")}
        )
        with make_set(spec, tmp_path, fault_policy=policy) as rs:
            rs.replicas()[0].healthy = False
            assert rs.restart(0) is False
            assert rs.healthy_count() == 1
            assert rs.stats.ship_failures == 1
            assert rs.restart(0) is True  # the retry succeeds


class TestRouting:
    def test_route_scatter_gathers_in_request_order(self, fleet, tmp_path):
        spec, xpaths = fleet
        requests = [
            (doc_id, pool[position])
            for position in range(QUERY_POOL)
            for doc_id, pool in sorted(xpaths.items())
        ]
        with make_set(spec, tmp_path) as rs:
            ids, kinds = rs.route(requests)
            assert len(ids) == len(requests) == len(kinds)
            for index, (doc_id, xpath) in enumerate(requests):
                assert [ids[index]] == direct_answers(spec, doc_id, [xpath])

    def test_route_unknown_document_is_typed(self, fleet, tmp_path):
        spec, _ = fleet
        with make_set(spec, tmp_path) as rs:
            with pytest.raises(UnknownDocumentError):
                rs.route([("no-such-doc", "a/b")])


def _run_failover_soak(fleet, root):
    """One deterministic soak run; returns (lost, mismatches, stats).

    ``batch_size=1`` makes the serve-call order equal the submission
    order, so the scripted crash indexes land identically every run —
    that is what lets the caller assert *exact* stats equality.
    """
    spec, xpaths = fleet
    requests = [
        (doc_id, pool[position])
        for position in range(QUERY_POOL)
        for doc_id, pool in sorted(xpaths.items())
    ]
    # Crash replica A at the 3rd serve call and replica B at the 6th:
    # both evictions happen mid-stream, the tail degrades to the writer.
    policy = ScriptedFaultPolicy(
        replica={
            ("serve", 2): FaultAction("crash"),
            ("serve", 5): FaultAction("crash"),
        }
    )
    expected = direct_request_answers(spec, requests)
    with CatalogServer(spec, workers=0) as server:
        with ReplicaSet(
            spec, replicas=2, root=root, fault_policy=policy
        ) as rs:

            async def drive():
                async with server.serve(
                    batch_size=1, replica_set=rs
                ) as front:
                    futures = [
                        await front.submit(doc_id, xpath)
                        for doc_id, xpath in requests
                    ]
                    return await asyncio.gather(*futures), front.counters()

            answers, counters = asyncio.run(drive())
            # Recovery rung: both evicted replicas restart and rejoin.
            for replica in rs.replicas():
                if not replica.healthy:
                    assert rs.restart(replica.index) is True
            assert rs.healthy_count() == 2
            stats = rs.stats_snapshot()
    lost = len(requests) - len(answers)
    mismatches = sum(
        1
        for index in range(len(requests))
        if answers[index] != expected[index]
    )
    assert counters["served"] == len(requests)
    assert counters["replication"]["replica_crashes"] == 2
    return lost, mismatches, stats


class TestFailoverSoak:
    """The PR's acceptance scenario: crash every replica mid-stream,
    lose nothing, answer bit-identically, and do it all *twice* with
    exactly the same counters."""

    def test_zero_lost_bit_identical_and_reproducible(
        self, fleet, tmp_path
    ):
        lost_a, mism_a, stats_a = _run_failover_soak(
            fleet, tmp_path / "run-a"
        )
        lost_b, mism_b, stats_b = _run_failover_soak(
            fleet, tmp_path / "run-b"
        )
        assert lost_a == lost_b == 0
        assert mism_a == mism_b == 0
        assert stats_a["replica_crashes"] == 2
        assert stats_a["evictions"] == 2
        assert stats_a["writer_fallbacks"] > 0
        assert stats_a["rejoins"] == 2
        # Every request answered exactly once — crashed attempts never
        # count an answer, the retry or the writer fallback does.
        assert stats_a["replica_answers"] + stats_a["writer_answers"] == (
            DOCUMENTS * QUERY_POOL
        )
        # The determinism contract: two same-seed runs agree exactly,
        # counter for counter, replica for replica.
        assert stats_a == stats_b


class TestServeReplayIntegration:
    def test_replay_serve_through_replicas_is_bit_identical(self):
        config = ServeReplayConfig(
            documents=2,
            stream=StreamConfig(length=10),
            document_size=200,
            replicas=2,
        )
        report = replay_serve(config, seed=11)
        assert report.served == report.requests
        assert report.answers_identical
        assert report.replication["replica_answers"] == report.requests
        assert report.replication["writer_fallbacks"] == 0
        assert report.serve_counters["replication"] == report.replication
