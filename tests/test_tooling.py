"""The repo's tooling: the stdlib lint (``tools/lint_exceptions.py``)
and the names perfbench's outside-in tracer patches."""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_lint():
    spec = importlib.util.spec_from_file_location(
        "lint_exceptions", REPO_ROOT / "tools" / "lint_exceptions.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestLintExceptions:
    def test_repository_is_clean(self):
        lint = _load_lint()
        assert lint.run_lint(lint.default_paths()) == []

    def test_flags_bare_except(self, tmp_path):
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text("try:\n    pass\nexcept:\n    pass\n")
        problems = lint.run_lint([bad])
        assert len(problems) == 1 and ":3:" in problems[0]

    def test_flags_swallowed_base_exception(self, tmp_path):
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text(
            "try:\n    pass\nexcept BaseException:\n    result = None\n"
        )
        assert len(lint.run_lint([bad])) == 1

    def test_reraising_handler_allowed(self, tmp_path):
        lint = _load_lint()
        ok = tmp_path / "ok.py"
        ok.write_text(
            "try:\n    pass\n"
            "except BaseException:\n    cleanup = True\n    raise\n"
        )
        assert lint.run_lint([ok]) == []

    def test_conditional_reraise_not_enough(self, tmp_path):
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text(
            "try:\n    pass\n"
            "except BaseException:\n"
            "    if True:\n        raise\n"
        )
        assert len(lint.run_lint([bad])) == 1

    def test_noqa_suppresses(self, tmp_path):
        lint = _load_lint()
        ok = tmp_path / "ok.py"
        ok.write_text(
            "try:\n    pass\n"
            "except BaseException:  # noqa: BLE001 - deliberate\n"
            "    pass\n"
            "try:\n    pass\n"
            "except:  # noqa\n    pass\n"
        )
        assert lint.run_lint([ok]) == []

    def test_unrelated_noqa_code_does_not_suppress(self, tmp_path):
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text(
            "try:\n    pass\nexcept:  # noqa: F401\n    pass\n"
        )
        assert len(lint.run_lint([bad])) == 1

    def test_tuple_containing_base_exception_flagged(self, tmp_path):
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text(
            "try:\n    pass\n"
            "except (ValueError, BaseException):\n    pass\n"
        )
        assert len(lint.run_lint([bad])) == 1

    def test_plain_exception_handler_allowed(self, tmp_path):
        lint = _load_lint()
        ok = tmp_path / "ok.py"
        ok.write_text(
            "try:\n    pass\nexcept Exception:\n    pass\n"
        )
        assert lint.run_lint([ok]) == []

    def test_syntax_error_reported_not_raised(self, tmp_path):
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        problems = lint.run_lint([bad])
        assert len(problems) == 1 and "syntax error" in problems[0]


class TestCancelledErrorRule:
    """PR 8: handlers must never swallow ``asyncio.CancelledError``."""

    def test_flags_swallowed_cancellation(self, tmp_path):
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import asyncio\n"
            "try:\n    pass\n"
            "except asyncio.CancelledError:\n    result = None\n"
        )
        problems = lint.run_lint([bad])
        assert len(problems) == 1 and "CancelledError" in problems[0]

    def test_flags_bare_imported_name(self, tmp_path):
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text(
            "from asyncio import CancelledError\n"
            "try:\n    pass\n"
            "except CancelledError:\n    pass\n"
        )
        assert len(lint.run_lint([bad])) == 1

    def test_flags_tuple_spelling(self, tmp_path):
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import asyncio\n"
            "try:\n    pass\n"
            "except (ValueError, asyncio.CancelledError):\n    pass\n"
        )
        assert len(lint.run_lint([bad])) == 1

    def test_cleanup_then_reraise_allowed(self, tmp_path):
        lint = _load_lint()
        ok = tmp_path / "ok.py"
        ok.write_text(
            "import asyncio\n"
            "try:\n    pass\n"
            "except asyncio.CancelledError:\n"
            "    cleanup = True\n    raise\n"
        )
        assert lint.run_lint([ok]) == []

    def test_conditional_reraise_not_enough(self, tmp_path):
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import asyncio\n"
            "try:\n    pass\n"
            "except asyncio.CancelledError:\n"
            "    if True:\n        raise\n"
        )
        assert len(lint.run_lint([bad])) == 1

    def test_asy_noqa_suppresses(self, tmp_path):
        lint = _load_lint()
        ok = tmp_path / "ok.py"
        ok.write_text(
            "import asyncio\n"
            "try:\n    pass\n"
            "except asyncio.CancelledError:  # noqa: ASY001 - on purpose\n"
            "    pass\n"
        )
        assert lint.run_lint([ok]) == []

    def test_unrelated_cancelled_error_class_untouched(self, tmp_path):
        """Only the name matters — but that is the point: any
        ``CancelledError`` (asyncio's or concurrent.futures') breaks
        cancellation when swallowed, so both spellings are flagged."""
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text(
            "from concurrent.futures import CancelledError\n"
            "try:\n    pass\n"
            "except CancelledError:\n    pass\n"
        )
        assert len(lint.run_lint([bad])) == 1


class TestReplicaUnavailableRule:
    """PR 9 (REP001): a caught ``ReplicaUnavailableError`` must be
    routed — retried on a sibling or re-raised — never dropped."""

    def test_flags_silent_swallow(self, tmp_path):
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text(
            "from repro.errors import ReplicaUnavailableError\n"
            "try:\n    pass\n"
            "except ReplicaUnavailableError:\n    result = None\n"
        )
        problems = lint.run_lint([bad])
        assert len(problems) == 1 and "REP001" in problems[0]

    def test_flags_tuple_spelling(self, tmp_path):
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import repro.errors\n"
            "try:\n    pass\n"
            "except (ValueError, repro.errors.ReplicaUnavailableError):\n"
            "    pass\n"
        )
        assert len(lint.run_lint([bad])) == 1

    def test_retry_call_allowed(self, tmp_path):
        lint = _load_lint()
        ok = tmp_path / "ok.py"
        ok.write_text(
            "try:\n    pass\n"
            "except ReplicaUnavailableError:\n"
            "    self._evict_and_retry(replica)\n"
        )
        assert lint.run_lint([ok]) == []

    def test_reraise_allowed_even_conditionally(self, tmp_path):
        """Unlike the interrupt rules, a *conditional* raise satisfies
        REP001 — availability decisions legitimately branch (last
        healthy replica → escalate, otherwise → writer fallback)."""
        lint = _load_lint()
        ok = tmp_path / "ok.py"
        ok.write_text(
            "try:\n    pass\n"
            "except ReplicaUnavailableError as exc:\n"
            "    if last:\n"
            "        raise WorkloadError('down') from exc\n"
        )
        assert lint.run_lint([ok]) == []

    def test_noqa_suppresses(self, tmp_path):
        lint = _load_lint()
        ok = tmp_path / "ok.py"
        ok.write_text(
            "try:\n    pass\n"
            "except ReplicaUnavailableError:  # noqa: REP001 - parked\n"
            "    healthy = False\n"
        )
        assert lint.run_lint([ok]) == []

    def test_noqa_must_be_on_except_line(self, tmp_path):
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text(
            "try:\n    pass\n"
            "except ReplicaUnavailableError:\n"
            "    healthy = False  # noqa: REP001\n"
        )
        assert len(lint.run_lint([bad])) == 1

    def test_retry_in_method_name_counts(self, tmp_path):
        lint = _load_lint()
        ok = tmp_path / "ok.py"
        ok.write_text(
            "try:\n    pass\n"
            "except ReplicaUnavailableError:\n"
            "    retry_on_sibling()\n"
        )
        assert lint.run_lint([ok]) == []


class TestObservabilityClockRule:
    """PR 10 (OBS001): wall clocks are injected, never read inline —
    a direct ``time.time()``/``time.monotonic()`` call outside the
    clock seams breaks virtual-time replay determinism."""

    def test_flags_time_time_call(self, tmp_path):
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nstamp = time.time()\n")
        problems = lint.run_lint([bad])
        assert len(problems) == 1 and "OBS001" in problems[0]

    def test_flags_time_monotonic_call(self, tmp_path):
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nstamp = time.monotonic()\n")
        assert len(lint.run_lint([bad])) == 1

    def test_flags_bare_imported_name(self, tmp_path):
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text("from time import monotonic\nstamp = monotonic()\n")
        assert len(lint.run_lint([bad])) == 1

    def test_flags_aliased_import(self, tmp_path):
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text("from time import time as now\nstamp = now()\n")
        assert len(lint.run_lint([bad])) == 1

    def test_perf_counter_allowed(self, tmp_path):
        """Measurement, not scheduling — replay is indifferent to it."""
        lint = _load_lint()
        ok = tmp_path / "ok.py"
        ok.write_text("import time\nstamp = time.perf_counter()\n")
        assert lint.run_lint([ok]) == []

    def test_uncalled_reference_allowed(self, tmp_path):
        """``clock=time.monotonic`` as a default *is* the seam."""
        lint = _load_lint()
        ok = tmp_path / "ok.py"
        ok.write_text(
            "import time\n"
            "def run(clock=None):\n"
            "    clock = clock if clock is not None else time.monotonic\n"
            "    return clock()\n"
        )
        assert lint.run_lint([ok]) == []

    def test_unrelated_name_not_flagged(self, tmp_path):
        """A local ``monotonic`` that is not time's is out of scope."""
        lint = _load_lint()
        ok = tmp_path / "ok.py"
        ok.write_text(
            "def monotonic():\n    return 0.0\n"
            "stamp = monotonic()\n"
        )
        assert lint.run_lint([ok]) == []

    def test_faults_module_exempt(self, tmp_path):
        lint = _load_lint()
        seam = tmp_path / "faults.py"
        seam.write_text("import time\nstamp = time.monotonic()\n")
        assert lint.run_lint([seam]) == []

    def test_obs_package_exempt(self, tmp_path):
        lint = _load_lint()
        package = tmp_path / "obs"
        package.mkdir()
        seam = package / "tracing.py"
        seam.write_text("import time\nstamp = time.monotonic()\n")
        assert lint.run_lint([package]) == []

    def test_noqa_suppresses(self, tmp_path):
        lint = _load_lint()
        ok = tmp_path / "ok.py"
        ok.write_text(
            "import time\n"
            "stamp = time.time()  # noqa: OBS001 - log timestamps\n"
        )
        assert lint.run_lint([ok]) == []

    def test_noqa_must_be_on_call_line(self, tmp_path):
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import time  # noqa: OBS001\n"
            "stamp = time.time()\n"
        )
        assert len(lint.run_lint([bad])) == 1


class TestPerfbenchTracer:
    """``perfbench/tracing.py`` patches serving methods by name.

    ``Tracer.install`` reads each method from its class's ``__dict__``,
    so renaming or removing one (``QueryEngine.answer_with_view``, say)
    is a ``KeyError`` here rather than only in ``make trace-check``.
    """

    def test_install_patches_and_uninstall_restores(self):
        from perfbench.tracing import METHODS, Tracer

        from repro.views.engine import QueryEngine

        originals = {
            (cls, name): cls.__dict__[name] for _, cls, name in METHODS
        }
        assert QueryEngine in {cls for cls, _ in originals}
        tracer = Tracer().install()
        try:
            for (cls, name), original in originals.items():
                assert cls.__dict__[name] is not original
        finally:
            tracer.uninstall()
        for (cls, name), original in originals.items():
            assert cls.__dict__[name] is original

    def test_catalog_layer_sees_every_cached_read(self):
        """What the tracer reads from ``Catalog.answer_many`` on hits.

        Its hook takes the document id and the XPath count by position
        and the result's ``answers`` and ``folded_queries``; a serving
        change that moved the cache ahead of the step would leave the
        ``catalog`` layer reading 0 on a warm stack.
        """
        import time

        from perfbench.tracing import Sink, Tracer

        from repro.catalog import CatalogServer, CatalogSpec, DocumentSpec
        from repro.patterns.parse import parse_pattern
        from repro.xmltree.tree import build_tree

        spec = CatalogSpec(
            documents=tuple(
                DocumentSpec.from_tree(
                    doc_id,
                    build_tree({"a": [{"b": ["c"]}, "b", "d"]}),
                    views=[parse_pattern("a/b")],
                )
                for doc_id in ("doc-0", "doc-1")
            )
        )
        requests = [
            (doc_id, xpath)
            for xpath in ("a/b", "a/b/c", "a/*", "a/b")
            for doc_id in ("doc-0", "doc-1")
        ]
        with CatalogServer(spec, workers=0) as server:
            cold = server.serve_requests(requests).answer_ids
            tracer = Tracer().install()
            sink = tracer.sink = Sink("inline")
            try:
                for doc_id, _ in requests:
                    sink.due(doc_id, time.perf_counter())
                warm = server.serve_requests(requests).answer_ids
            finally:
                tracer.sink = None
                tracer.uninstall()
            hits = sum(
                doc["engine"]["answer_cache_hits"]
                for doc in server.counters().values()
            )
        assert warm == cold
        assert hits == len(requests)
        assert sink.calls["catalog"] == len({doc for doc, _ in requests})
        assert sink.batch_queries == len(requests)
        assert len(sink.waits_ms) == len(requests)

    def test_layers_reconcile_over_the_async_front_end(self, tmp_path):
        """The tracer over :class:`AsyncFrontEnd`, as ``make trace-check``
        drives it: one queue wait per request, one serving-layer call per
        dispatched batch, and layer self times summing to the outermost
        calls' time, for the inline catalog and for a replica set."""
        import asyncio
        import time

        import pytest

        from perfbench.tracing import Sink, Tracer

        from repro.catalog import CatalogServer, CatalogSpec, DocumentSpec
        from repro.catalog.replication import ReplicaSet
        from repro.patterns.parse import parse_pattern
        from repro.xmltree.tree import build_tree

        from .oracle import direct_request_answers

        spec = CatalogSpec(
            documents=tuple(
                DocumentSpec.from_tree(
                    doc_id,
                    build_tree({"a": [{"b": ["c"]}, "b", "d"]}),
                    views=[parse_pattern("a/b")],
                )
                for doc_id in ("doc-0", "doc-1", "doc-2")
            )
        )
        requests = [
            (doc_id, xpath)
            for xpath in ("a/b", "a/b/c", "a/*", "a/b", "a//c")
            for doc_id in ("doc-0", "doc-1", "doc-2")
        ]
        expected = direct_request_answers(spec, requests)

        async def drive(front, sink):
            async with front:
                futures = []
                for doc_id, xpath in requests:
                    futures.append(await front.submit(doc_id, xpath))
                    sink.due(doc_id, time.perf_counter())
                answers = await asyncio.gather(*futures)
            return answers, front.counters()

        def traced(server, mode, replica_set=None):
            tracer = Tracer().install()
            sink = tracer.sink = Sink(mode)
            try:
                front = server.serve(batch_size=2, replica_set=replica_set)
                answers, counters = asyncio.run(drive(front, sink))
            finally:
                tracer.sink = None
                tracer.uninstall()
            assert answers == expected
            return sink, counters

        with CatalogServer(spec, workers=0) as server:
            inline = traced(server, "inline")
            with ReplicaSet(spec, replicas=2, root=tmp_path / "set") as rs:
                replica = traced(server, "replica", rs)
        for (sink, counters), layer in (
            (inline, "catalog"),
            (replica, "replication"),
        ):
            log = counters["dispatch_log"]
            dispatched = sum(1 for _, live, _ in log if live)
            assert dispatched == counters["batches"] > len(spec.documents)
            assert len(sink.waits_ms) == len(requests)
            assert sink.calls[layer] == dispatched
            assert sum(sink.self_s.values()) == pytest.approx(sink.outer_s)
