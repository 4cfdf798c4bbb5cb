"""Persistent storage backends for the materialized view store.

The paper's serving scenario (§1, §2.4) only pays off if the
materialized forests ``V(t)`` survive the process that computed them: a
restarted server that must re-evaluate every view over every document is
back to the cold path the rewriting machinery was meant to avoid.  This
module gives :class:`~repro.views.store.ViewStore` a pluggable storage
layer:

* :class:`StoreBackend` — the protocol the store materializes through.
  A backend is a mapping ``(document digest, pattern digest) ->
  materialized node ids`` with save/load/invalidate; the store treats a
  ``load`` miss as "evaluate and save".
* :class:`MemoryBackend` — the process-local dict implementation; the
  default, equivalent to the pre-persistence behavior.
* :class:`SnapshotBackend` — an append-only snapshot log on disk.  Each
  record is one JSON line carrying its own SHA-256 checksum, so a torn
  tail write (or any hand-corrupted line) is detected and *skipped* on
  open rather than poisoning the store — a corrupt or missing entry
  simply falls back to re-evaluation.

Besides materializations, backends persist **selection records**: the
view advisor's chosen view set for one ``(document digest, workload
fingerprint)`` pair (see :func:`repro.views.advisor.serialize_selection`).
Re-advising is the dominant warm-start cost, so a catalog that finds a
matching selection record skips the advisor entirely; the fingerprint
binds the advisor's exact inputs, so a changed workload or budget can
never be served a stale selection.

Keying and integrity
--------------------
Node identity does not survive a process, so materializations are
persisted as **preorder indexes** into their document.  Two digests make
that sound across processes:

* :func:`document_digest` binds the exact *ordered* labeled shape of the
  document (depth + label per node, preorder).  Preorder indexes are only
  resolved against a document whose digest matches the stored key, so a
  mutated document can never be served stale node sets — its digest
  differs and its entries are rebuilt (and
  :meth:`~repro.views.store.ViewStore.refresh` explicitly invalidates the
  old digest's entries).
* :func:`pattern_digest` hashes :meth:`Pattern.signature()
  <repro.patterns.ast.Pattern.signature>` — the canonical flat signature,
  stable across processes and interning epochs (unlike
  ``Pattern.memo_key``, whose tokens die with the process/epoch).

As a final guard the store validates loaded indexes against the live
document size; out-of-range ids are treated as a miss.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence

logger = logging.getLogger(__name__)

#: Process-wide once-flag for the directory-fsync warning: the failure
#: is non-fatal and typically environmental (platform without openable
#: directories), so one log line per process is signal, more is noise.
#: The per-backend count lives in ``BackendStats.fsync_failures``.
_FSYNC_FAILURE_LOGGED = False

from ..obs.metrics import StatsBase
from ..patterns.ast import Pattern
from ..xmltree.tree import XMLTree

__all__ = [
    "BackendStats",
    "LogTail",
    "MemoryBackend",
    "ShipResult",
    "SnapshotBackend",
    "StoreBackend",
    "document_digest",
    "pattern_digest",
]

#: Snapshot log format version; bumped on incompatible record changes.
FORMAT_VERSION = 1


def document_digest(tree: XMLTree) -> str:
    """SHA-256 over the ordered labeled shape of a document.

    The serialization walks the tree in preorder emitting
    ``depth:len(label):label`` per node, so the digest changes whenever
    any persisted preorder index could resolve differently — equal
    digests guarantee that equal indexes denote structurally identical
    positions.
    """
    hasher = hashlib.sha256()
    stack: list[tuple] = [(tree.root, 0)]
    while stack:
        node, depth = stack.pop()
        label = node.label
        hasher.update(f"{depth}:{len(label)}:{label};".encode())
        for child in reversed(node.children):
            stack.append((child, depth + 1))
    return hasher.hexdigest()


def pattern_digest(pattern: Pattern) -> str:
    """SHA-256 of the pattern's canonical signature.

    Equal digests iff isomorphic patterns (modulo SHA-256 collisions);
    stable across processes and ``memo_key`` interning epochs, which is
    what makes it a valid persisted key.
    """
    return hashlib.sha256(pattern.signature().encode()).hexdigest()


@dataclass
class BackendStats(StatsBase):
    """Counters for one backend's lifetime.

    ``corrupt_records`` counts snapshot-log lines rejected on open
    (bad JSON, wrong version, checksum mismatch); each rejected line is
    skipped, never served.  The ``selection_*`` counters track advisor
    selection records separately from materializations — a warm start is
    one where ``selection_hits`` rose.  ``fsync_failures`` counts
    directory-fsync failures after a compaction rename: non-fatal (the
    rename stays atomic) but a crash-durability window the operator
    should be able to see instead of it vanishing into a bare ``pass``.
    ``io_errors`` counts appends the snapshot log's file refused (an
    ``OSError``): the record is skipped and serving proceeds —
    durability is what was lost, and this counter is how an operator
    notices.
    """

    hits: int = 0
    misses: int = 0
    saves: int = 0
    invalidations: int = 0
    corrupt_records: int = 0
    selection_hits: int = 0
    selection_misses: int = 0
    selection_saves: int = 0
    fsync_failures: int = 0
    io_errors: int = 0


class StoreBackend(Protocol):
    """Storage protocol behind :class:`~repro.views.store.ViewStore`.

    Implementations map ``(document_digest, pattern_digest)`` to the
    sorted preorder indexes of the materialized answer nodes.  ``load``
    returns ``None`` on a miss (the store then evaluates and ``save``\\ s);
    ``invalidate_document`` drops every entry for one document digest.
    ``reject_loaded`` is the store's report that a just-loaded entry
    failed validation (e.g. out-of-range indexes): the backend drops
    the entry and reclassifies the lookup as a miss in its own stats —
    counter ownership stays inside the backend.

    ``load_selection``/``save_selection`` persist the view advisor's
    chosen view set per ``(document digest, workload fingerprint)``.
    Payloads are JSON-serializable dicts produced by
    :func:`repro.views.advisor.serialize_selection`; backends treat them
    as opaque.  ``invalidate_document`` drops a document's selections
    along with its materializations — both are keyed by the digest that
    just went stale.

    The ``durable`` flag tells callers whether entries outlive the
    process (used by tooling/reporting only — the store's logic is
    identical for both kinds).
    """

    durable: bool
    stats: BackendStats

    def load(self, doc_digest: str, pat_digest: str) -> list[int] | None: ...

    def save(
        self,
        doc_digest: str,
        pat_digest: str,
        node_ids: Sequence[int],
        *,
        xpath: str = "",
    ) -> None: ...

    def load_selection(self, doc_digest: str, fingerprint: str) -> dict | None: ...

    def save_selection(
        self, doc_digest: str, fingerprint: str, payload: dict
    ) -> None: ...

    def invalidate_document(self, doc_digest: str) -> None: ...

    def reject_loaded(self, doc_digest: str, pat_digest: str) -> None: ...

    def close(self) -> None: ...


class _RejectLoadedMixin:
    """Shared ``reject_loaded``: drop the entry, hit → miss + corrupt."""

    def reject_loaded(self, doc_digest: str, pat_digest: str) -> None:
        self._entries.pop((doc_digest, pat_digest), None)
        self.stats.hits -= 1
        self.stats.misses += 1
        self.stats.corrupt_records += 1


def _json_copy(payload: dict) -> dict:
    """A deep copy through JSON, as a durable round trip would return."""
    return json.loads(json.dumps(payload))


class _SelectionMapMixin:
    """Shared selection-record bookkeeping over a ``_selections`` dict.

    Payloads are JSON round-tripped on save and copied on load, so a
    caller mutating its dict after the fact can never alias the stored
    record — the same isolation a durable backend gives for free.
    """

    def load_selection(self, doc_digest: str, fingerprint: str) -> dict | None:
        payload = self._selections.get((doc_digest, fingerprint))
        if payload is None:
            self.stats.selection_misses += 1
            return None
        self.stats.selection_hits += 1
        return _json_copy(payload)

    def _store_selection(
        self, doc_digest: str, fingerprint: str, clean: dict
    ) -> None:
        self._selections[(doc_digest, fingerprint)] = clean
        self.stats.selection_saves += 1

    def _drop_selections(self, doc_digest: str) -> None:
        for key in [k for k in self._selections if k[0] == doc_digest]:
            del self._selections[key]


class MemoryBackend(_RejectLoadedMixin, _SelectionMapMixin):
    """The in-process backend: a plain dict, nothing survives exit.

    This is the default for :class:`~repro.views.store.ViewStore` and
    reproduces the pre-persistence behavior exactly (every
    materialization computed at most once per store per document shape).
    """

    durable = False

    def __init__(self) -> None:
        self.stats = BackendStats()
        self._entries: dict[tuple[str, str], list[int]] = {}
        self._selections: dict[tuple[str, str], dict] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def load(self, doc_digest: str, pat_digest: str) -> list[int] | None:
        entry = self._entries.get((doc_digest, pat_digest))
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return list(entry)

    def save(
        self,
        doc_digest: str,
        pat_digest: str,
        node_ids: Sequence[int],
        *,
        xpath: str = "",
    ) -> None:
        self._entries[(doc_digest, pat_digest)] = list(node_ids)
        self.stats.saves += 1

    def save_selection(
        self, doc_digest: str, fingerprint: str, payload: dict
    ) -> None:
        self._store_selection(doc_digest, fingerprint, _json_copy(payload))

    def invalidate_document(self, doc_digest: str) -> None:
        stale = [key for key in self._entries if key[0] == doc_digest]
        for key in stale:
            del self._entries[key]
        self._drop_selections(doc_digest)
        self.stats.invalidations += 1

    def close(self) -> None:
        pass


def _fsync_directory(path: Path) -> bool:
    """Durably persist a directory entry change (rename/replace).

    ``os.replace`` is atomic but its durability requires syncing the
    *directory*, not just the file.  Platforms whose directories cannot
    be opened or fsynced (e.g. Windows) skip — the rename is still
    atomic there, only the crash-durability window stays.  Returns
    ``True`` when the directory entry was durably synced so callers can
    count (and log) the failure instead of losing it silently.
    """
    try:
        dir_fd = os.open(path, os.O_RDONLY)
    except OSError:
        return False
    try:
        os.fsync(dir_fd)
    except OSError:
        return False
    finally:
        os.close(dir_fd)
    return True


def _note_fsync_failure(stats: BackendStats, path: Path) -> None:
    """Count a directory-fsync failure; warn once per process."""
    global _FSYNC_FAILURE_LOGGED
    stats.fsync_failures += 1
    if not _FSYNC_FAILURE_LOGGED:
        _FSYNC_FAILURE_LOGGED = True
        logger.warning(
            "directory fsync failed after compacting %s: the rename is "
            "atomic but not crash-durable (counted in "
            "BackendStats.fsync_failures; logged once per process)",
            path,
        )


def _record_checksum(record: dict) -> str:
    """Checksum over the canonical JSON of a record minus its ``sum``."""
    body = {key: value for key, value in record.items() if key != "sum"}
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _valid_record(record) -> bool:
    """Structural + checksum validation of one parsed log record."""
    return (
        isinstance(record, dict)
        and record.get("v") == FORMAT_VERSION
        and record.get("sum") == _record_checksum(record)
    )


@dataclass(frozen=True)
class LogTail:
    """One :meth:`SnapshotBackend.read_since` result — a shippable tail.

    ``records`` are the validated records with sequence number strictly
    greater than the requested ``since``, in file order; ``corrupt``
    counts lines in the file that failed validation (a nonzero count
    during replication catch-up means the tail is torn and the reader
    should re-ship); ``last_seqno`` is the writer's current high-water
    mark, so a reader can tell "nothing new" from "records lost".
    """

    records: tuple[dict, ...]
    corrupt: int
    last_seqno: int


@dataclass(frozen=True)
class ShipResult:
    """One :meth:`SnapshotBackend.apply_records` result.

    ``applied`` counts records appended and applied; ``skipped`` counts
    idempotent duplicates (sequence number at or below the reader's
    high-water mark — safe to receive twice); ``rejected`` counts
    records failing structural/checksum validation; ``gap_at`` is the
    first sequence number that did not extend the reader's log
    contiguously (``None`` when the batch was contiguous).  A reader
    seeing ``rejected > 0`` or ``gap_at is not None`` must treat the
    shipment as torn and re-request from its last applied seqno (in
    practice: a full snapshot re-ship).
    """

    applied: int
    skipped: int
    rejected: int
    gap_at: int | None

    @property
    def clean(self) -> bool:
        return self.rejected == 0 and self.gap_at is None


class SnapshotBackend(_RejectLoadedMixin, _SelectionMapMixin):
    """Append-only snapshot log: one self-checksummed JSON record per line.

    Records are ``put`` (a materialization for one
    ``(document digest, pattern digest)`` key — later puts supersede
    earlier ones), ``selection`` (an advisor selection for one
    ``(document digest, workload fingerprint)`` key) or ``invalidate``
    (drop every entry — materializations and selections — for a document
    digest, appended by :meth:`~repro.views.store.ViewStore.refresh`
    when a document's shape changes).  Opening replays the log into an
    in-memory map, skipping — and counting, in
    ``stats.corrupt_records`` — any line whose JSON, format version or
    SHA-256 checksum does not verify, so a torn write or hand-edited
    file degrades to re-evaluation instead of an error.

    Writes are appended and flushed immediately (``fsync`` when
    ``sync=True``); :meth:`compact` rewrites the log with only the live
    entries, dropping superseded and invalidated records.  An append
    the file refuses loses durability, never availability: it is
    counted in ``stats.io_errors`` and changes nothing else, so the
    in-memory map always equals what replaying the log gives (a save
    that failed is a later miss, and the store re-evaluates).

    Replication (PR 9): every appended record carries a monotone
    sequence number ``seq`` (covered by the checksum), so the log
    doubles as a shippable replication stream.  :meth:`read_since`
    returns the validated tail past a reader's high-water mark and
    :meth:`apply_records` applies a shipped tail idempotently on the
    reader side, detecting duplicates, torn records and gaps — see
    :mod:`repro.catalog.replication`.  Compaction preserves each live
    record's original ``seq`` (the file stays seq-ascending), but drops
    superseded records, so a reader catching up across a compaction
    boundary sees a gap and re-ships — safe, never wrong.

    Usable as a context manager; :meth:`close` is idempotent.
    """

    durable = True

    def __init__(self, path: str | Path, *, sync: bool = False) -> None:
        self.path = Path(path)
        self.sync = sync
        self.stats = BackendStats()
        self._entries: dict[tuple[str, str], list[int]] = {}
        self._selections: dict[tuple[str, str], dict] = {}
        # Human-readable provenance per entry (the view's XPath at save
        # time); carried through the log so compaction preserves it.
        self._xpaths: dict[tuple[str, str], str] = {}
        # Monotone sequence numbers: the high-water mark plus each live
        # record's own seq (compaction re-emits records with their
        # original numbers, keeping the file seq-ascending).
        self._last_seqno = 0
        self._entry_seqs: dict[tuple[str, str], int] = {}
        self._selection_seqs: dict[tuple[str, str], int] = {}
        self._replay_log()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")
        # A torn tail write may have left the file without a final
        # newline; appending straight after it would corrupt the first
        # new record too.  Start appends on a fresh line instead.
        if self.path.stat().st_size > 0:
            with open(self.path, "rb") as probe:
                probe.seek(-1, os.SEEK_END)
                if probe.read(1) != b"\n":
                    self._fh.write("\n")
                    self._fh.flush()

    # ------------------------------------------------------------------
    # Log I/O
    # ------------------------------------------------------------------
    def _replay_log(self) -> None:
        if not self.path.exists():
            return
        try:
            # errors="replace": a bit-flipped byte that breaks UTF-8
            # must degrade to a corrupt *line* (the mangled JSON fails
            # to parse), never to a crashed reload.
            lines = self.path.read_text(
                encoding="utf-8", errors="replace"
            ).splitlines()
        except OSError:
            self.stats.corrupt_records += 1
            return
        for line in lines:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                self.stats.corrupt_records += 1
                continue
            if not _valid_record(record):
                self.stats.corrupt_records += 1
                continue
            self._apply(record)

    def _record_seq(self, record: dict) -> int:
        """The record's sequence number (0 for pre-seqno logs)."""
        seq = record.get("seq")
        return seq if isinstance(seq, int) and seq > 0 else 0

    def _apply(self, record: dict) -> None:
        seq = self._record_seq(record)
        self._last_seqno = max(self._last_seqno, seq)
        op = record.get("op")
        if op == "put":
            key = (record["doc"], record["pat"])
            self._entries[key] = list(record["ids"])
            self._xpaths[key] = record.get("xpath", "")
            self._entry_seqs[key] = seq
        elif op == "selection":
            key = (record["doc"], record["fp"])
            self._selections[key] = record["payload"]
            self._selection_seqs[key] = seq
        elif op == "invalidate":
            doc = record["doc"]
            for key in [k for k in self._entries if k[0] == doc]:
                del self._entries[key]
                self._xpaths.pop(key, None)
                self._entry_seqs.pop(key, None)
            self._drop_selections(doc)
            for key in [k for k in self._selection_seqs if k[0] == doc]:
                del self._selection_seqs[key]
        else:  # unknown op from a future version: ignore, keep the rest
            self.stats.corrupt_records += 1

    def _append(self, record: dict) -> bool:
        """Append ``record`` under the next seqno; False if the file refused.

        A refused append (an ``OSError``) is counted in
        ``stats.io_errors`` and takes no seqno; callers then leave their
        in-memory state as it was.  Whatever the disk kept of the line
        is validated like any other on the next open: a torn record
        fails its checksum and is skipped.
        """
        record["seq"] = self._last_seqno + 1
        record["v"] = FORMAT_VERSION
        record["sum"] = _record_checksum(record)
        try:
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._fh.flush()
            if self.sync:
                os.fsync(self._fh.fileno())
        except OSError:
            self.stats.io_errors += 1
            return False
        self._last_seqno = record["seq"]
        return True

    # ------------------------------------------------------------------
    # StoreBackend protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def load(self, doc_digest: str, pat_digest: str) -> list[int] | None:
        entry = self._entries.get((doc_digest, pat_digest))
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return list(entry)

    def save(
        self,
        doc_digest: str,
        pat_digest: str,
        node_ids: Sequence[int],
        *,
        xpath: str = "",
    ) -> None:
        ids = sorted(node_ids)
        key = (doc_digest, pat_digest)
        record = {"op": "put", "doc": doc_digest, "pat": pat_digest,
                  "xpath": xpath, "ids": ids}
        if not self._append(record):
            return
        self._entries[key] = ids
        self._xpaths[key] = xpath
        self._entry_seqs[key] = record["seq"]
        self.stats.saves += 1

    def save_selection(
        self, doc_digest: str, fingerprint: str, payload: dict
    ) -> None:
        clean = _json_copy(payload)
        record = {"op": "selection", "doc": doc_digest, "fp": fingerprint,
                  "payload": clean}
        if not self._append(record):
            return
        self._store_selection(doc_digest, fingerprint, clean)
        self._selection_seqs[(doc_digest, fingerprint)] = record["seq"]

    def invalidate_document(self, doc_digest: str) -> None:
        if not self._append({"op": "invalidate", "doc": doc_digest}):
            return
        for key in [k for k in self._entries if k[0] == doc_digest]:
            del self._entries[key]
            self._xpaths.pop(key, None)
            self._entry_seqs.pop(key, None)
        self._drop_selections(doc_digest)
        for key in [k for k in self._selection_seqs if k[0] == doc_digest]:
            del self._selection_seqs[key]
        self.stats.invalidations += 1

    def reject_loaded(self, doc_digest: str, pat_digest: str) -> None:
        super().reject_loaded(doc_digest, pat_digest)
        self._xpaths.pop((doc_digest, pat_digest), None)
        self._entry_seqs.pop((doc_digest, pat_digest), None)

    def compact(self) -> int:
        """Rewrite the log keeping only live entries; returns their count.

        Live materializations *and* live selection records are carried
        over; superseded puts and anything dropped by an ``invalidate``
        are gone.  Safe against crashes mid-compaction: the new log is
        written to a sibling temp file first (the live append handle
        stays open, so a failed write leaves the backend fully usable),
        atomically renamed over the old one, and the parent directory is
        fsynced after the rename — without the directory sync a crash
        between rename and the directory's own writeback could resurrect
        the pre-compaction log (or, on some filesystems, neither file).
        """
        live: list[dict] = []
        for (doc, pat), ids in sorted(self._entries.items()):
            live.append(
                {"op": "put", "doc": doc, "pat": pat,
                 "xpath": self._xpaths.get((doc, pat), ""),
                 "ids": ids, "seq": self._entry_seqs.get((doc, pat), 0)}
            )
        for (doc, fp), payload in sorted(self._selections.items()):
            live.append(
                {"op": "selection", "doc": doc, "fp": fp,
                 "payload": payload,
                 "seq": self._selection_seqs.get((doc, fp), 0)}
            )
        # Original seqs, seq-ascending file order: a reader resuming
        # from a pre-compaction high-water mark still sees a monotone
        # stream (with gaps where superseded records were dropped —
        # which apply_records reports, forcing the safe re-ship).
        live.sort(key=lambda rec: rec["seq"])
        tmp = self.path.with_suffix(self.path.suffix + ".compact")
        with open(tmp, "w", encoding="utf-8") as out:
            for record in live:
                record["v"] = FORMAT_VERSION
                record["sum"] = _record_checksum(record)
                out.write(json.dumps(record, sort_keys=True) + "\n")
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, self.path)
        if not _fsync_directory(self.path.parent):
            _note_fsync_failure(self.stats, self.path)
        # Swap handles only after the replace succeeded — the old handle
        # points at the replaced inode and must not receive new appends.
        self._fh.close()
        self._fh = open(self.path, "a", encoding="utf-8")
        return len(self._entries)

    # ------------------------------------------------------------------
    # Replication: log shipping (writer side) and idempotent apply
    # (reader side) — see repro.catalog.replication
    # ------------------------------------------------------------------
    @property
    def last_seqno(self) -> int:
        """High-water mark: the largest sequence number ever appended."""
        return self._last_seqno

    def read_since(self, seqno: int) -> LogTail:
        """The validated log tail past ``seqno``, ready to ship.

        Re-reads the file (appends are flushed, so the on-disk state is
        current), validates every line exactly like open-time replay,
        and returns the records whose sequence number exceeds ``seqno``
        in file order.  Lines failing validation are counted in the
        tail's ``corrupt`` field (not in this backend's stats — the
        file may be a shipped copy whose corruption belongs to the
        reader's ledger).
        """
        records: list[dict] = []
        corrupt = 0
        try:
            lines = self.path.read_text(
                encoding="utf-8", errors="replace"
            ).splitlines()
        except OSError:
            return LogTail(records=(), corrupt=1, last_seqno=self._last_seqno)
        for line in lines:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                corrupt += 1
                continue
            if not _valid_record(record):
                corrupt += 1
                continue
            if self._record_seq(record) > seqno:
                records.append(record)
        return LogTail(
            records=tuple(records),
            corrupt=corrupt,
            last_seqno=self._last_seqno,
        )

    def apply_records(self, records: Sequence[dict]) -> ShipResult:
        """Apply a shipped record batch idempotently; append what lands.

        The reader-side half of log shipping.  Records at or below this
        backend's high-water mark are skipped (duplicates are safe);
        records failing validation are rejected (counted here *and* in
        ``stats.corrupt_records``); the first record that does not
        extend the log contiguously stops the batch and is reported as
        ``gap_at``.  Applied records are appended verbatim (their
        checksums were computed by the writer and re-verify here), so
        this backend's own log remains a valid shipping source.
        """
        applied = skipped = rejected = 0
        gap_at: int | None = None
        for record in records:
            if not _valid_record(record):
                rejected += 1
                self.stats.corrupt_records += 1
                continue
            seq = self._record_seq(record)
            if seq <= self._last_seqno:
                skipped += 1
                continue
            if seq != self._last_seqno + 1:
                gap_at = seq
                break
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._fh.flush()
            if self.sync:
                os.fsync(self._fh.fileno())
            self._apply(record)
            applied += 1
        return ShipResult(
            applied=applied, skipped=skipped, rejected=rejected, gap_at=gap_at
        )

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "SnapshotBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
