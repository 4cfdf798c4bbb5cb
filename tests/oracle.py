"""Direct-evaluation ground truth for the serving-path tests.

Every serving path (inline catalog, pool, replicas, async front end)
answers with sorted preorder indexes.  :func:`direct_answers` computes
the same encoding straight from a spec document's XML with
:func:`repro.evaluate`, so a bug shared by every caller of
``Catalog.answer_many`` cannot hide behind a path-vs-path identity
check.
"""

from __future__ import annotations

from typing import Sequence

from repro import evaluate
from repro.catalog import CatalogSpec
from repro.patterns.parse import parse_pattern
from repro.xmltree.parse import parse_xml


def direct_answers(
    spec: CatalogSpec, doc_id: str, xpaths: Sequence[str]
) -> list[list[int]]:
    """``P(t)`` for each XPath on document ``doc_id``, as preorder ids."""
    (xml,) = [doc.xml for doc in spec.documents if doc.doc_id == doc_id]
    tree = parse_xml(xml)
    position = {id(node): i for i, node in enumerate(tree.nodes())}
    return [
        sorted(position[id(node)] for node in evaluate(parse_pattern(x), tree))
        for x in xpaths
    ]


def direct_request_answers(
    spec: CatalogSpec, requests: Sequence[tuple[str, str]]
) -> list[list[int]]:
    """``P(t)`` for each ``(doc_id, xpath)`` request, in request order."""
    return [
        direct_answers(spec, doc_id, [xpath])[0] for doc_id, xpath in requests
    ]
