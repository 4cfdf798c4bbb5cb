"""Tests for the disk-backed view store (repro.views.persist).

Covers the acceptance criteria of the persistence subsystem: save →
process-equivalent reload → identical answers and bit-identical replay
counters; corrupted or stale snapshot entries fall back to rebuild;
document mutation invalidates the old shape's entries.
"""

from __future__ import annotations

import errno
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.patterns.parse import parse_pattern
from repro.views.persist import (
    MemoryBackend,
    SnapshotBackend,
    document_digest,
    pattern_digest,
)
from repro.views.store import ViewStore
from repro.workloads.replay import ReplayConfig, replay_workload
from repro.workloads.streams import StreamConfig
from repro.xmltree.generate import random_tree
from repro.xmltree.tree import build_tree


@pytest.fixture
def snapshot_path(tmp_path):
    return tmp_path / "views.snapshot.jsonl"


def make_document(seed: int = 3):
    return random_tree(180, seed=seed)


VIEWS = {
    "v-desc": "a//b",
    "v-star": "a/*[b]",
    "v-branch": "a[c]//b",
}


def populate(store: ViewStore, seed: int = 3) -> None:
    store.add_document("doc", make_document(seed))
    for name, xpath in VIEWS.items():
        store.define_view(name, parse_pattern(xpath))


class TestDigests:
    def test_document_digest_binds_shape(self):
        t1 = build_tree({"a": ["b", {"c": ["d"]}]})
        t2 = build_tree({"a": ["b", {"c": ["d"]}]})
        t3 = build_tree({"a": [{"c": ["d"]}, "b"]})  # different child order
        assert document_digest(t1) == document_digest(t2)
        assert document_digest(t1) != document_digest(t3)

    def test_document_digest_sees_depth(self):
        flat = build_tree({"a": ["b", "c"]})
        deep = build_tree({"a": [{"b": ["c"]}]})
        assert document_digest(flat) != document_digest(deep)

    def test_pattern_digest_isomorphism(self):
        p1 = parse_pattern("a[b][c]//d")
        p2 = parse_pattern("a[c][b]//d")  # branch order irrelevant
        p3 = parse_pattern("a[b][c]/d")
        assert pattern_digest(p1) == pattern_digest(p2)
        assert pattern_digest(p1) != pattern_digest(p3)


class TestSnapshotRoundTrip:
    def test_reload_serves_identical_answers(self, snapshot_path):
        store = ViewStore(backend=SnapshotBackend(snapshot_path))
        populate(store)
        expected = {
            name: {node.label for node in store.view_answers(name, "doc")}
            for name in VIEWS
        }
        expected_sizes = {
            name: len(store.view_answers(name, "doc")) for name in VIEWS
        }
        store.close()

        # Process-equivalent reload: fresh backend object, fresh store,
        # freshly regenerated (isomorphic) document.
        backend = SnapshotBackend(snapshot_path)
        reloaded = ViewStore(backend=backend)
        populate(reloaded)
        assert backend.stats.hits == len(VIEWS)
        assert backend.stats.saves == 0
        for name in VIEWS:
            answers = reloaded.view_answers(name, "doc")
            assert len(answers) == expected_sizes[name]
            assert {node.label for node in answers} == expected[name]
            # Loaded forests must equal what evaluation would produce,
            # as identity-based node sets on the live document.
            direct = reloaded.evaluate(parse_pattern(VIEWS[name]), "doc")
            assert answers == frozenset(direct)
        reloaded.close()

    def test_loaded_nodes_live_in_the_new_document(self, snapshot_path):
        store = ViewStore(backend=SnapshotBackend(snapshot_path))
        populate(store)
        store.close()
        reloaded = ViewStore(backend=SnapshotBackend(snapshot_path))
        populate(reloaded)
        doc_nodes = set(map(id, reloaded.document("doc").nodes()))
        for name in VIEWS:
            for node in reloaded.view_answers(name, "doc"):
                assert id(node) in doc_nodes
        reloaded.close()

    def test_memory_backend_equivalent(self, snapshot_path):
        durable = ViewStore(backend=SnapshotBackend(snapshot_path))
        populate(durable)
        memory = ViewStore(backend=MemoryBackend())
        populate(memory)
        default = ViewStore()
        populate(default)
        for name in VIEWS:
            sizes = {
                len(s.view_answers(name, "doc"))
                for s in (durable, memory, default)
            }
            assert len(sizes) == 1
        durable.close()


class TestReplayCountersIdentical:
    CONFIG = dict(
        stream=StreamConfig(length=80, templates=6),
        document_size=200,
        max_views=3,
    )

    def test_warm_store_replay_bit_identical(self, snapshot_path):
        durable = ReplayConfig(**self.CONFIG, persist_path=snapshot_path)
        cold = replay_workload(durable, seed=11)
        warm = replay_workload(durable, seed=11)
        memory = replay_workload(ReplayConfig(**self.CONFIG), seed=11)
        assert cold.backend["saves"] > 0 and cold.backend["hits"] == 0
        assert warm.backend["hits"] > 0 and warm.backend["saves"] == 0
        assert cold.counters() == memory.counters()
        assert warm.counters() == memory.counters()

    def test_batched_warm_store_bit_identical(self, snapshot_path):
        durable = ReplayConfig(
            **self.CONFIG, persist_path=snapshot_path, batch_size=16
        )
        cold = replay_workload(durable, seed=11)
        warm = replay_workload(durable, seed=11)
        assert warm.backend["hits"] > 0
        assert cold.counters() == warm.counters()


class TestCorruptionAndStaleness:
    def test_garbage_file_falls_back_to_rebuild(self, snapshot_path):
        snapshot_path.write_text("this is not json\x00\xef garbage\n{half")
        backend = SnapshotBackend(snapshot_path)
        assert backend.stats.corrupt_records >= 1
        assert len(backend) == 0
        store = ViewStore(backend=backend)
        populate(store)  # rebuilds from scratch, then persists
        assert backend.stats.saves == len(VIEWS)
        store.close()
        # The rebuilt log is valid again.
        again = SnapshotBackend(snapshot_path)
        assert len(again) == len(VIEWS)
        assert again.stats.corrupt_records >= 1  # the old garbage lines

    def test_torn_tail_write_skipped(self, snapshot_path):
        store = ViewStore(backend=SnapshotBackend(snapshot_path))
        populate(store)
        store.close()
        whole = snapshot_path.read_text()
        snapshot_path.write_text(whole + whole.splitlines()[0][: len(whole) // 8])
        backend = SnapshotBackend(snapshot_path)
        assert backend.stats.corrupt_records == 1
        assert len(backend) == len(VIEWS)

    def test_tampered_record_fails_checksum(self, snapshot_path):
        store = ViewStore(backend=SnapshotBackend(snapshot_path))
        populate(store)
        store.close()
        lines = snapshot_path.read_text().splitlines()
        record = json.loads(lines[0])
        record["ids"] = [0]  # tamper without fixing the checksum
        lines[0] = json.dumps(record, sort_keys=True)
        snapshot_path.write_text("\n".join(lines) + "\n")
        backend = SnapshotBackend(snapshot_path)
        assert backend.stats.corrupt_records == 1
        assert len(backend) == len(VIEWS) - 1

    def test_out_of_range_ids_treated_as_miss(self, snapshot_path):
        pattern = parse_pattern("a//b")
        doc = make_document()
        # Forge a valid-checksum record with impossible node ids.
        backend = SnapshotBackend(snapshot_path)
        backend.save(
            document_digest(doc), pattern_digest(pattern), [10_000_000]
        )
        backend.close()
        store = ViewStore(backend=SnapshotBackend(snapshot_path))
        store.add_document("doc", doc)
        store.define_view("v", pattern)
        assert store.backend.stats.corrupt_records == 1
        # The rejected entry is reclassified miss, not left as a "hit":
        # warm-start monitoring must not count a rebuild as a load.
        assert store.backend.stats.hits == 0
        assert store.backend.stats.misses == 1
        assert store.view_answers("v", "doc") == frozenset(
            store.evaluate(pattern, "doc")
        )
        store.close()

    def test_unknown_format_version_skipped(self, snapshot_path):
        store = ViewStore(backend=SnapshotBackend(snapshot_path))
        populate(store)
        store.close()
        lines = snapshot_path.read_text().splitlines()
        record = json.loads(lines[0])
        record["v"] = 999
        lines[0] = json.dumps(record, sort_keys=True)
        snapshot_path.write_text("\n".join(lines) + "\n")
        backend = SnapshotBackend(snapshot_path)
        assert backend.stats.corrupt_records == 1
        assert len(backend) == len(VIEWS) - 1


class TestUnreadableLog:
    def test_unreadable_log_is_never_rewritten(
        self, snapshot_path, monkeypatch
    ):
        """A log the backend could not read stays as it was: saves and
        compaction are refused and counted, and the records it never
        saw load again once the file reads."""
        with SnapshotBackend(snapshot_path) as backend:
            for index in range(3):
                backend.save("d", f"p{index}", [index])
        original = snapshot_path.read_bytes()
        read_text = Path.read_text
        failures = [OSError(errno.EIO, "disk I/O error (injected)")]

        def fail_once(path, *args, **kwargs):
            if failures:
                raise failures.pop()
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", fail_once)
        with SnapshotBackend(snapshot_path) as backend:
            assert backend.last_seqno == 0
            assert backend.stats.io_errors == 1
            assert backend.stats.corrupt_records == 0
            backend.save("d", "new", [7])
            assert backend.load("d", "new") is None  # re-evaluated
            backend.compact()
            assert backend.stats.io_errors == 3
            assert backend.stats.saves == 0
        assert snapshot_path.read_bytes() == original
        with SnapshotBackend(snapshot_path) as reopened:
            assert [reopened.load("d", f"p{i}") for i in range(3)] == [
                [0], [1], [2]
            ]
            assert reopened.last_seqno == 3


class TestInvalidation:
    def test_refresh_invalidates_old_shape(self, snapshot_path):
        backend = SnapshotBackend(snapshot_path)
        store = ViewStore(backend=backend)
        tree = build_tree({"a": ["b", {"c": ["b"]}]})
        store.add_document("doc", tree)
        pattern = parse_pattern("a//b")
        store.define_view("v", pattern)
        assert len(store.view_answers("v", "doc")) == 2
        old_digest = store.document_digest("doc")

        tree.root.new_child("b")  # in-place mutation changes the shape
        store.refresh("doc")
        assert backend.stats.invalidations == 1
        assert store.document_digest("doc") != old_digest
        assert len(store.view_answers("v", "doc")) == 3
        assert store.view_answers("v", "doc") == frozenset(
            store.evaluate(pattern, "doc")
        )
        store.close()

        # After reload the new shape's entry is served, the old is gone.
        again = SnapshotBackend(snapshot_path)
        keys = {doc for doc, _ in again._entries}
        assert old_digest not in keys

    def test_refresh_spares_shared_shape(self, snapshot_path):
        backend = SnapshotBackend(snapshot_path)
        store = ViewStore(backend=backend)
        mutated = build_tree({"a": ["b", "b"]})
        twin = build_tree({"a": ["b", "b"]})  # same shape, stays put
        store.add_document("mutated", mutated)
        store.add_document("twin", twin)
        store.define_view("v", parse_pattern("a/b"))
        shared_digest = store.document_digest("twin")
        mutated.root.new_child("c")
        store.refresh("mutated")
        # The twin still owns the old shape: no invalidation happened,
        # and its persisted entry survives for the next process.
        assert backend.stats.invalidations == 0
        store.close()
        assert shared_digest in {doc for doc, _ in SnapshotBackend(snapshot_path)._entries}

    def test_compact_preserves_entries(self, snapshot_path):
        backend = SnapshotBackend(snapshot_path)
        store = ViewStore(backend=backend)
        populate(store)
        size_before = snapshot_path.stat().st_size
        live = backend.compact()
        assert live == len(VIEWS)
        assert snapshot_path.stat().st_size <= size_before
        store.close()
        reloaded = ViewStore(backend=SnapshotBackend(snapshot_path))
        populate(reloaded)
        assert reloaded.backend.stats.hits == len(VIEWS)
        reloaded.close()

    def test_compact_preserves_xpath_provenance(self, snapshot_path):
        store = ViewStore(backend=SnapshotBackend(snapshot_path))
        populate(store)
        store.backend.compact()
        store.close()
        records = [
            json.loads(line) for line in snapshot_path.read_text().splitlines()
        ]
        assert sorted(r["xpath"] for r in records) == sorted(VIEWS.values())


class TestSelectionRecords:
    PAYLOAD = {
        "format": 1,
        "views": [{"xpath": "a//b", "cost": 3.0, "benefit": 2.0}],
        "uncovered": [],
    }

    def test_memory_backend_round_trip_and_isolation(self):
        backend = MemoryBackend()
        assert backend.load_selection("d1", "fp") is None
        assert backend.stats.selection_misses == 1
        payload = {k: v for k, v in self.PAYLOAD.items()}
        backend.save_selection("d1", "fp", payload)
        payload["views"] = []  # caller mutation must not alias the store
        loaded = backend.load_selection("d1", "fp")
        assert loaded == self.PAYLOAD
        loaded["uncovered"].append(9)  # nor must a loaded copy
        assert backend.load_selection("d1", "fp") == self.PAYLOAD
        assert backend.stats.selection_hits == 2
        assert backend.stats.selection_saves == 1

    def test_snapshot_backend_persists_selections(self, snapshot_path):
        with SnapshotBackend(snapshot_path) as backend:
            backend.save_selection("d1", "fp", self.PAYLOAD)
        with SnapshotBackend(snapshot_path) as backend:
            assert backend.load_selection("d1", "fp") == self.PAYLOAD

    def test_invalidate_drops_selections_too(self, snapshot_path):
        with SnapshotBackend(snapshot_path) as backend:
            backend.save_selection("d1", "fp", self.PAYLOAD)
            backend.save_selection("d2", "fp", self.PAYLOAD)
            backend.invalidate_document("d1")
            assert backend.load_selection("d1", "fp") is None
            assert backend.load_selection("d2", "fp") == self.PAYLOAD
        # ... and the invalidate record replays the same way on reopen.
        with SnapshotBackend(snapshot_path) as backend:
            assert backend.load_selection("d1", "fp") is None
            assert backend.load_selection("d2", "fp") == self.PAYLOAD

    def test_tampered_selection_record_skipped(self, snapshot_path):
        with SnapshotBackend(snapshot_path) as backend:
            backend.save_selection("d1", "fp", self.PAYLOAD)
        lines = snapshot_path.read_text().splitlines()
        record = json.loads(lines[0])
        record["payload"]["views"] = []  # checksum now stale
        snapshot_path.write_text(json.dumps(record) + "\n")
        with SnapshotBackend(snapshot_path) as backend:
            assert backend.stats.corrupt_records == 1
            assert backend.load_selection("d1", "fp") is None


class TestCompaction:
    def test_compact_with_pending_invalidations(self, snapshot_path):
        """Compaction drops invalidated entries and keeps the rest live.

        The log holds puts for two documents, a selection record each,
        and a pending ``invalidate`` for one of them; the compacted log
        must contain only the survivor's records — and reopening it must
        reconstruct exactly the pre-compaction live state.
        """
        with SnapshotBackend(snapshot_path) as backend:
            backend.save("keep", "p1", [1, 2], xpath="a/b")
            backend.save("keep", "p2", [3], xpath="a//c")
            backend.save("gone", "p1", [4], xpath="a/d")
            backend.save_selection("keep", "fp", {"views": []})
            backend.save_selection("gone", "fp", {"views": []})
            backend.invalidate_document("gone")
            live = backend.compact()
            assert live == 2
        records = [
            json.loads(line) for line in snapshot_path.read_text().splitlines()
        ]
        assert all(record["doc"] == "keep" for record in records)
        assert sorted(record["op"] for record in records) == [
            "put",
            "put",
            "selection",
        ]
        with SnapshotBackend(snapshot_path) as backend:
            assert backend.stats.corrupt_records == 0
            assert backend.load("keep", "p1") == [1, 2]
            assert backend.load("gone", "p1") is None
            assert backend.load_selection("keep", "fp") == {"views": []}
            assert backend.load_selection("gone", "fp") is None

    def test_compact_fsyncs_the_directory(self, snapshot_path, monkeypatch):
        """The rename is made durable: the parent directory gets fsynced.

        A crash between ``os.replace`` and the directory's own writeback
        could resurrect the old log; the fix is an explicit directory
        fsync after the rename.  The filesystem effect is not observable
        from userspace, so the test pins the call itself.
        """
        import repro.views.persist as persist

        synced: list = []
        real = persist._fsync_directory
        monkeypatch.setattr(
            persist,
            "_fsync_directory",
            lambda path: (synced.append(path), real(path))[1],
        )
        with SnapshotBackend(snapshot_path) as backend:
            backend.save("d1", "p1", [1])
            backend.compact()
        assert synced == [snapshot_path.parent]

    def test_fsync_failure_counted_and_logged_once(
        self, snapshot_path, monkeypatch, caplog
    ):
        """A failed directory fsync is observable, never silent (regression).

        The failure used to vanish: ``_fsync_directory`` returned and
        nobody looked.  Now every failure bumps
        ``BackendStats.fsync_failures`` and the first one per process
        logs a warning — counted always, logged once.
        """
        import logging

        import repro.views.persist as persist

        monkeypatch.setattr(persist, "_fsync_directory", lambda path: False)
        monkeypatch.setattr(persist, "_FSYNC_FAILURE_LOGGED", False)
        with SnapshotBackend(snapshot_path) as backend:
            backend.save("d1", "p1", [1])
            with caplog.at_level(logging.WARNING, logger=persist.logger.name):
                backend.compact()
                assert backend.stats.fsync_failures == 1
                backend.compact()
                assert backend.stats.fsync_failures == 2
            assert backend.stats.snapshot()["fsync_failures"] == 2
        warnings = [
            record
            for record in caplog.records
            if "fsync" in record.getMessage()
        ]
        assert len(warnings) == 1  # log-once; the counter carries the rest

    def test_fsync_directory_failure_paths_return_false(
        self, tmp_path, monkeypatch
    ):
        import repro.views.persist as persist

        def deny_open(path, flags):
            raise OSError("directories not openable here")

        monkeypatch.setattr(persist.os, "open", deny_open)
        assert persist._fsync_directory(tmp_path) is False
        monkeypatch.undo()

        def deny_fsync(fd):
            raise OSError("EINVAL")

        monkeypatch.setattr(persist.os, "fsync", deny_fsync)
        assert persist._fsync_directory(tmp_path) is False

    def test_backend_usable_after_compact(self, snapshot_path):
        with SnapshotBackend(snapshot_path) as backend:
            backend.save("d1", "p1", [1])
            backend.compact()
            backend.save("d1", "p2", [2])  # append handle was swapped
        with SnapshotBackend(snapshot_path) as backend:
            assert backend.load("d1", "p1") == [1]
            assert backend.load("d1", "p2") == [2]


class TestLogShipping:
    """PR 9: sequence numbers, tails and idempotent application."""

    def _writer(self, path, puts=3):
        backend = SnapshotBackend(path)
        for index in range(puts):
            backend.save(f"doc{index}", f"pat{index}", [index, index + 10])
        return backend

    def test_seqnos_are_monotone_and_replayed(self, tmp_path):
        path = tmp_path / "writer.jsonl"
        with self._writer(path, puts=4) as writer:
            assert writer.last_seqno == 4
        with SnapshotBackend(path) as reopened:
            assert reopened.last_seqno == 4
            reopened.save("doc9", "pat9", [9])
            assert reopened.last_seqno == 5

    def test_read_since_returns_only_the_tail(self, tmp_path):
        with self._writer(tmp_path / "w.jsonl", puts=5) as writer:
            tail = writer.read_since(3)
            assert [rec["seq"] for rec in tail.records] == [4, 5]
            assert tail.corrupt == 0 and tail.last_seqno == 5
            assert writer.read_since(5).records == ()

    def test_apply_is_idempotent_and_detects_gaps(self, tmp_path):
        with self._writer(tmp_path / "w.jsonl", puts=4) as writer:
            tail = writer.read_since(0)
            with SnapshotBackend(tmp_path / "r.jsonl") as replica:
                first = replica.apply_records(tail.records)
                assert first.applied == 4 and first.clean
                again = replica.apply_records(tail.records)
                assert again.applied == 0 and again.skipped == 4
                assert again.clean
                # Skip seq 5: the batch stops at the gap, applying nothing.
                writer.save("doc8", "pat8", [8])
                writer.save("doc9", "pat9", [9])
                gappy = writer.read_since(0).records[-1:]  # only seq 6
                result = replica.apply_records(gappy)
                assert result.gap_at == 6 and not result.clean
                assert replica.last_seqno == 4

    def test_applied_log_is_itself_a_shipping_source(self, tmp_path):
        with self._writer(tmp_path / "w.jsonl", puts=3) as writer:
            tail = writer.read_since(0)
        with SnapshotBackend(tmp_path / "mid.jsonl") as middle:
            assert middle.apply_records(tail.records).clean
            relay = middle.read_since(0)
            assert relay.corrupt == 0
        with SnapshotBackend(tmp_path / "end.jsonl") as end:
            assert end.apply_records(relay.records).applied == 3
            assert end.load("doc2", "pat2") == [2, 12]

    def test_compaction_preserves_seqnos(self, tmp_path):
        path = tmp_path / "w.jsonl"
        with SnapshotBackend(path) as writer:
            writer.save("d1", "p1", [1])       # seq 1
            writer.save("d1", "p1", [1, 2])    # seq 2 supersedes seq 1
            writer.save("d2", "p2", [3])       # seq 3
            writer.compact()
            assert writer.last_seqno == 3
            seqs = [rec["seq"] for rec in writer.read_since(0).records]
            assert seqs == sorted(seqs) and seqs[-1] == 3
            # The superseded record is gone: an incremental ship of the
            # compacted log has a gap, which forces a full re-ship —
            # staleness is detectable, wrong answers are impossible.
            with SnapshotBackend(tmp_path / "r.jsonl") as replica:
                result = replica.apply_records(writer.read_since(0).records)
                assert result.gap_at is not None or result.clean

    def test_rejected_records_counted(self, tmp_path):
        with self._writer(tmp_path / "w.jsonl", puts=2) as writer:
            tail = writer.read_since(0)
        bad = dict(tail.records[0])
        bad["ids"] = [999]  # checksum no longer matches
        with SnapshotBackend(tmp_path / "r.jsonl") as replica:
            result = replica.apply_records([bad, tail.records[1]])
            assert result.rejected == 1
            assert replica.stats.corrupt_records == 1
            # seq 2 after rejected seq 1 is a gap, not an application.
            assert result.gap_at == 2 and replica.last_seqno == 0


class TestShippedLogCorruptionProperty:
    """Hypothesis: no corruption of a shipped log suffix ever yields a
    wrong answer on the replica — only detectable staleness, fixed by a
    full re-ship."""

    pytestmark = pytest.mark.slow

    @given(
        puts=st.integers(min_value=2, max_value=6),
        cut=st.integers(min_value=0, max_value=10_000),
        flip=st.one_of(st.none(), st.integers(min_value=0, max_value=10_000)),
    )
    @settings(max_examples=60, deadline=None)
    def test_truncate_or_bitflip_never_wrong(self, puts, cut, flip):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as root:
            base = Path(root)
            writer = SnapshotBackend(base / "writer.jsonl")
            expected = {}
            for index in range(puts):
                key = (f"doc{index}", f"pat{index}")
                writer.save(*key, [index, index + 100])
                expected[key] = [index, index + 100]
            blob = (base / "writer.jsonl").read_bytes()

            # Corrupt a suffix: truncate at an arbitrary byte, then
            # optionally flip one bit inside what remains.
            keep = len(blob) - (cut % (len(blob) + 1))
            mangled = bytearray(blob[:keep])
            if flip is not None and mangled:
                position = flip % len(mangled)
                mangled[position] ^= 0x40
            (base / "shipped.jsonl").write_bytes(bytes(mangled))

            shipped = SnapshotBackend(base / "shipped.jsonl")
            tail = shipped.read_since(0)
            replica = SnapshotBackend(base / "replica.jsonl")
            replica.apply_records(tail.records)

            # Safety: every entry the replica serves is bit-identical
            # to the writer's — corruption may lose records (staleness)
            # but can never change one.
            for key, ids in replica._entries.items():
                assert expected.get(key) == ids

            # Liveness: a full re-ship from the intact writer restores
            # exactly the writer's state, whatever the corruption did.
            (base / "reshipped.jsonl").write_bytes(blob)
            restored = SnapshotBackend(base / "reshipped.jsonl")
            assert restored._entries == writer._entries
            assert restored.last_seqno == writer.last_seqno
            for backend in (writer, shipped, replica, restored):
                backend.close()
