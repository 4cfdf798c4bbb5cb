"""Seeded open-loop request streams for the async serving tests.

:func:`fleet` derives a small multi-document spec and its XPath request
stream from one seed.  :func:`serve_open_loop` submits the stream to a
fresh inline front end, ``CatalogServer(spec, workers=0).serve()``, at
seeded Poisson arrival times and returns one future per request.

With a :class:`~repro.faults.VirtualClock` the producer advances the
clock to each scheduled arrival instead of sleeping, so the event-loop
interleaving, and with it the trace structure, depends on the seed
alone.  Without one it sleeps on the event loop's clock: real-time
pacing.  Answers are checked by the callers against direct evaluation
(:mod:`tests.oracle`), never against another serving path.
"""

from __future__ import annotations

import asyncio
import random

from repro.catalog import CatalogServer, CatalogSpec, DocumentSpec
from repro.faults import VirtualClock
from repro.patterns.serialize import to_xpath
from repro.workloads.streams import StreamConfig, sample_stream
from repro.xmltree.generate import random_tree

#: Queries that select something on every generated document (the other
#: serving fixtures append the same two to their pools): sampled streams
#: mostly answer nothing on trees this small, so a broad query follows
#: every ``BROAD_EVERY``-th sampled one.
BROAD = ("*//b", "*//a/*")
BROAD_EVERY = 3

DOCUMENTS = 2
DOCUMENT_SIZE = 120
STREAM = StreamConfig(length=15, templates=5)
MAX_VIEWS = 2


def fleet(seed: int) -> tuple[CatalogSpec, list[tuple[str, str]]]:
    """A two-document spec and its ``(doc_id, xpath)`` request stream.

    Document ``i`` and its sampled stream derive from the sub-seed
    ``seed * 10_007 + i``.  Each document's requests are its sampled
    stream with a :data:`BROAD` query after every third sampled one;
    the documents' requests interleave round-robin.
    """
    documents = []
    streams = []
    for index in range(DOCUMENTS):
        doc_id = f"doc-{index}"
        doc_seed = seed * 10_007 + index
        tree = random_tree(DOCUMENT_SIZE, seed=doc_seed)
        sample = sample_stream(STREAM, seed=doc_seed)
        documents.append(
            DocumentSpec.from_tree(
                doc_id, tree, sample.templates, sample.template_weights()
            )
        )
        xpaths = []
        for position, entry in enumerate(sample.entries, start=1):
            xpaths.append(to_xpath(entry.query))
            if position % BROAD_EVERY == 0:
                xpaths.append(BROAD[(position // BROAD_EVERY) % len(BROAD)])
        streams.append([(doc_id, xpath) for xpath in xpaths])
    spec = CatalogSpec(documents=tuple(documents), max_views=MAX_VIEWS)
    requests = [request for row in zip(*streams) for request in row]
    return spec, requests


def serve_open_loop(
    spec: CatalogSpec,
    requests: list[tuple[str, str]],
    *,
    seed: int,
    rate: float,
    clock: VirtualClock | None = None,
    **options,
) -> tuple[list[asyncio.Future], dict]:
    """Submit ``requests`` at seeded Poisson arrival times.

    The gaps are exponential at ``rate`` requests per second, drawn
    from ``seed``.  ``options`` go to :meth:`CatalogServer.serve
    <repro.catalog.server.CatalogServer.serve>`.  Returns every
    request's future, in request order and resolved (the front end has
    drained), plus the front end's counters.
    """
    rng = random.Random(seed * 65_537 + 11)
    offsets = []
    arrival = 0.0
    for _ in requests:
        arrival += rng.expovariate(rate)
        offsets.append(arrival)

    async def drive(server: CatalogServer):
        now = clock if clock is not None else asyncio.get_running_loop().time
        start = now()
        futures = []
        async with server.serve(clock=clock, **options) as front:
            for offset, (doc_id, xpath) in zip(offsets, requests):
                behind = start + offset - now()
                if clock is not None:
                    # Yield once per arrival so the drain loop
                    # interleaves the same way on every run.
                    if behind > 0:
                        clock.advance(behind)
                    await asyncio.sleep(0)
                elif behind > 0:
                    await asyncio.sleep(behind)
                futures.append(await front.submit(doc_id, xpath))
        return futures, front.counters()

    with CatalogServer(spec, workers=0) as server:
        return asyncio.run(drive(server))
