"""Seeded inputs for the serving benchmark: documents, requests, oracle.

Documents and arrival times derive from the run's ``--seed``; the query
templates and streams from :data:`QUERY_SEED`.  Everything is built
before any timing starts.  The program under test only ever receives the
generated inputs: a :class:`~repro.catalog.server.CatalogSpec` (XML text
plus the advisor's template XPaths) and ``(document id, XPath)`` requests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import evaluate
from repro.catalog.server import CatalogSpec, DocumentSpec
from repro.core.embedding import TreeIndex
from repro.patterns.ast import Pattern
from repro.patterns.parse import parse_pattern
from repro.patterns.serialize import to_xpath
from repro.workloads.streams import StreamConfig, sample_stream
from repro.xmltree.generate import random_tree
from repro.xmltree.tree import XMLTree

DOCUMENTS = 16
#: Above ``TABLE_BACKEND_MAX_NODES`` (1024): direct evaluation runs on the
#: numpy ``TreeIndex`` backend, view forests on the table backend.
DOCUMENT_NODES = 1200
TEMPLATES = 16
MAX_VIEWS = 4
#: One ``ReplicaSet.define_views`` call after every this many reads.
READS_PER_WRITE = 200
#: Readiness-probe query.  Its label is outside the generator's alphabet
#: (``a``..``e`` and ``*``), so answering it warms no entry a timed
#: request could hit.
PROBE_XPATH = "z"

#: The query templates and streams are drawn from this committed seed;
#: ``--seed`` draws the documents and the arrival process.  Seed-drawn
#: queries let a few very expensive plans move every latency metric by
#: 30-60% from seed to seed (see README.md, "Steadiness").
QUERY_SEED = 1

MIX = StreamConfig(templates=TEMPLATES, repeat_prob=0.5, specialize_prob=0.3)
HOT = StreamConfig(templates=TEMPLATES, repeat_prob=1.0, specialize_prob=0.0)


@dataclass(frozen=True)
class Op:
    """One operation of a pass: a read request or a view definition."""

    doc_id: str
    xpath: str
    write: Pattern | None = None


@dataclass
class Fleet:
    spec: CatalogSpec
    doc_ids: list[str]
    trees: dict[str, XMLTree]
    template_xpaths: dict[str, list[str]]
    reads: list[tuple[str, str]]
    #: Unit-rate Poisson arrival offsets, one per operation; a pass at
    #: rate ``r`` schedules operation ``i`` at ``unit_offsets[i] / r``.
    unit_offsets: list[float]
    ops: list[Op]

    def ops_for(self, reads: int) -> int:
        """How many leading operations hold the first ``reads`` reads."""
        seen = 0
        for index, op in enumerate(self.ops):
            if op.write is None:
                seen += 1
                if seen > reads:
                    return index
        return len(self.ops)


def doc_seed(seed: int, index: int) -> int:
    return seed * 10_007 + index


def build_fleet(
    seed: int, stream: StreamConfig, requests: int, writes: bool
) -> Fleet:
    """The fleet and ``requests`` reads, interleaved round-robin by document.

    With ``writes``, after every :data:`READS_PER_WRITE` reads one write
    defines the next template of the next document (documents in turn) as
    an explicit view.
    """
    length = -(-requests // DOCUMENTS)
    config = StreamConfig(
        length=length,
        templates=stream.templates,
        repeat_prob=stream.repeat_prob,
        specialize_prob=stream.specialize_prob,
    )
    doc_ids = [f"doc-{index:02d}" for index in range(DOCUMENTS)]
    trees: dict[str, XMLTree] = {}
    templates: dict[str, list[Pattern]] = {}
    columns: dict[str, list[str]] = {}
    documents = []
    for index, doc_id in enumerate(doc_ids):
        tree = random_tree(DOCUMENT_NODES, seed=doc_seed(seed, index))
        sample = sample_stream(config, seed=doc_seed(QUERY_SEED, index))
        trees[doc_id] = tree
        templates[doc_id] = sample.templates
        columns[doc_id] = [to_xpath(entry.query) for entry in sample.entries]
        documents.append(
            DocumentSpec.from_tree(
                doc_id, tree, sample.templates, sample.template_weights()
            )
        )
    spec = CatalogSpec(documents=tuple(documents), max_views=MAX_VIEWS)
    reads = [
        (doc_id, columns[doc_id][position])
        for position in range(length)
        for doc_id in doc_ids
    ][:requests]

    ops: list[Op] = []
    next_template = dict.fromkeys(doc_ids, 0)
    for count, (doc_id, xpath) in enumerate(reads, start=1):
        ops.append(Op(doc_id, xpath))
        if writes and count % READS_PER_WRITE == 0:
            target = doc_ids[(count // READS_PER_WRITE - 1) % DOCUMENTS]
            pattern = templates[target][next_template[target] % TEMPLATES]
            next_template[target] += 1
            ops.append(Op(target, to_xpath(pattern), write=pattern))

    rng = random.Random(seed * 65_537 + 11)
    offsets, arrival = [], 0.0
    for _ in ops:
        arrival += rng.expovariate(1.0)
        offsets.append(arrival)
    template_xpaths = {
        doc_id: [to_xpath(pattern) for pattern in patterns]
        for doc_id, patterns in templates.items()
    }
    return Fleet(spec, doc_ids, trees, template_xpaths, reads, offsets, ops)


def build_oracle(fleet: Fleet) -> dict[tuple[str, str], list[int]]:
    """Direct-evaluation answers for every distinct ``(document, XPath)``.

    Answers are sorted preorder indexes, the encoding every serving path
    returns.  Each document gets one prebuilt ``TreeIndex``: without it,
    ``evaluate`` rebuilds a numpy index per call on these documents.
    """
    wanted = {(doc_id, xpath) for doc_id, xpath in fleet.reads}
    wanted.update((doc_id, PROBE_XPATH) for doc_id in fleet.doc_ids)
    indexes = {
        doc_id: TreeIndex(tree.root) for doc_id, tree in fleet.trees.items()
    }
    positions = {
        doc_id: {id(node): i for i, node in enumerate(tree.nodes())}
        for doc_id, tree in fleet.trees.items()
    }
    oracle = {}
    for doc_id, xpath in sorted(wanted):
        nodes = evaluate(
            parse_pattern(xpath), fleet.trees[doc_id], index=indexes[doc_id]
        )
        oracle[(doc_id, xpath)] = sorted(
            positions[doc_id][id(node)] for node in nodes
        )
    return oracle
