"""Answering bibliography queries from materialized views.

Run:  python examples/bibliography_views.py

The paper's information-integration motivation, concretely: a DBLP-like
document is large; a view materializes the publication entries once, and
subsequent queries are answered from the view via equivalent rewritings
— never touching the document again.  The planner picks the cheapest
usable view per query.
"""

import time

from repro import evaluate, parse_pattern, to_xpath
from repro.views import QueryEngine, ViewStore
from repro.xmltree.generate import dblp_like


QUERIES = [
    "dblp/article[author]/title",
    "dblp/article[author]/year",
    "dblp/article[journal]/author/name",
    "dblp/*[author]/title",
    "dblp/inproceedings[booktitle]/title",
]


def main() -> None:
    document = dblp_like(entries=400, seed=42)
    print(f"document: {document.size()} nodes")

    store = ViewStore()
    store.add_document("bib", document)
    store.define_view("articles", parse_pattern("dblp/article[author]"))
    store.define_view("inproc", parse_pattern("dblp/inproceedings"))
    store.define_view("entries", parse_pattern("dblp/*[author]"))
    for view in store.views():
        print(f"view {view.name:<9} = {to_xpath(view.pattern):<28} "
              f"({view.answer_count('bib')} stored answers)")

    engine = QueryEngine(store)
    print()
    for text in QUERIES:
        query = parse_pattern(text)
        plan = engine.plan(query, "bib")

        start = time.perf_counter()
        direct = evaluate(query, document)
        direct_ms = (time.perf_counter() - start) * 1e3

        start = time.perf_counter()
        answer = engine.answer(query, "bib")
        engine_ms = (time.perf_counter() - start) * 1e3

        assert answer == direct, "Prop 2.4 violated?!"
        via = " ∩ ".join(part.view_name for part in plan.parts)
        rewriting = " ∩ ".join(to_xpath(part.rewriting) for part in plan.parts)
        via, rewriting = via or "direct scan", rewriting or "-"
        print(
            f"{text:<38} -> {via:<11} R = {rewriting:<22} "
            f"|answer| = {len(answer):>3}   direct {direct_ms:6.2f} ms, "
            f"engine {engine_ms:6.2f} ms"
        )

    stats = engine.stats
    print(
        f"\nengine stats: {stats.view_answers} view-based answers, "
        f"{stats.direct_answers} direct, "
        f"{stats.rewrites_found}/{stats.rewrites_attempted} rewrites found"
    )


if __name__ == "__main__":
    main()
