"""Outside-in per-layer timing: wrappers around public entry points.

No code under ``src/`` changes.  :class:`Tracer` replaces each public
entry point with a wrapper that times the call and charges its *self
time* (duration minus the time of wrapped calls nested inside it) to the
entry point's layer.  Durations are read on the thread's CPU clock, so
time the host steals from the process is not charged to any layer and
the layers reconcile with the process CPU time.  Functions are wrapped at every binding a caller
uses: ``from x import f`` copies the name into the caller's module, so
patching only the defining module would miss those calls.  Calls that a
defining module makes to its own functions stay unwrapped and are charged
to the enclosing call's layer.

The calls a pass makes are synchronous and nest strictly (no ``await``
inside any wrapped call), so one stack of open frames gives exact self
times, and the self times of all layers add up to the summed duration of
the outermost wrapped calls.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict, deque

from repro.catalog.catalog import Catalog
from repro.catalog.replication import ReplicaSet
from repro.core.containment import ContainmentBatch, contains, contains_all
from repro.core.embedding import evaluate, evaluate_forest
from repro.core.rewrite import RewriteSolver
from repro.patterns.parse import parse_pattern
from repro.patterns.serialize import to_xpath
from repro.shardpool import ShardPool
from repro.views.advisor import advise_views
from repro.views.engine import QueryEngine
from repro.views.store import ViewStore
from repro.xmltree.parse import parse_xml

#: (layer, class, method) for methods; patching the class attribute
#: covers every caller.
METHODS = [
    ("catalog", Catalog, "answer_many"),
    ("engine.plan", QueryEngine, "plan"),
    ("intersect", QueryEngine, "plan_intersection"),
    ("engine.execute", QueryEngine, "answer_with_view"),
    ("engine.execute", QueryEngine, "answer_with_intersection"),
    ("engine.execute", QueryEngine, "answer_direct"),
    ("rewrite", RewriteSolver, "solve"),
    ("containment", ContainmentBatch, "contains"),
    ("store", ViewStore, "evaluate"),
    ("store", ViewStore, "node_ids"),
    ("replication", ReplicaSet, "execute"),
    ("replication.write", ReplicaSet, "define_views"),
    ("shardpool", ShardPool, "submit"),
]

#: (layer, function) for module-level functions, wrapped at each binding.
FUNCTIONS = [
    ("containment", contains),
    ("containment.batch", contains_all),
    ("embedding", evaluate),
    ("embedding", evaluate_forest),
    ("patterns", parse_pattern),
    ("patterns", to_xpath),
    ("advisor", advise_views),
    ("xmltree", parse_xml),
]


class Sink:
    """What one traced phase (a stack build or a pass) accumulated."""

    def __init__(self, mode: str = ""):
        self.mode = mode
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Summed CPU time of the outermost wrapped calls.
        self.outer_s = 0.0
        self.dues: dict[str, deque] = defaultdict(deque)
        self.waits_ms: list[float] = []
        self.roundtrips_ms: list[float] = []
        self.batch_queries = 0
        self.folded = 0
        self.solves = 0
        self.solves_found = 0
        self.advisor_tests = 0

    def due(self, doc_id: str, due: float) -> None:
        self.dues[doc_id].append(due)

    def served(self, doc_id: str, count: int, started: float) -> None:
        """A serving call took ``count`` requests of ``doc_id``.

        The front end dispatches each document's requests in arrival
        order, so they are the oldest ``count`` not yet served.
        """
        queue = self.dues[doc_id]
        for _ in range(min(count, len(queue))):
            self.waits_ms.append((started - queue.popleft()) * 1000.0)


def _after_answer_many(sink, started, outermost, args, result):
    sink.batch_queries += len(result.answers)
    sink.folded += result.folded_queries
    if outermost and sink.mode == "inline":
        sink.served(args[1], len(args[2]), started)


def _after_execute(sink, started, outermost, args, result):
    if outermost and sink.mode == "replica":
        sink.served(args[1], len(args[2]), started)


def _after_submit(sink, started, outermost, args, result):
    if outermost and sink.mode == "pool" and len(args) == 5:
        sink.served(args[3], len(args[4]), started)
    result.add_done_callback(
        lambda _f: sink.roundtrips_ms.append(
            (time.perf_counter() - started) * 1000.0
        )
    )


def _after_solve(sink, started, outermost, args, result):
    sink.solves += 1
    sink.solves_found += int(result.found)


def _after_advise(sink, started, outermost, args, result):
    sink.advisor_tests += result.stats.containment_tests


HOOKS = {
    (Catalog, "answer_many"): _after_answer_many,
    (ReplicaSet, "execute"): _after_execute,
    (ShardPool, "submit"): _after_submit,
    (RewriteSolver, "solve"): _after_solve,
    advise_views: _after_advise,
}


class Tracer:
    """Installs the wrappers; records into :attr:`sink` while it is set."""

    def __init__(self) -> None:
        self.sink: Sink | None = None
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer, fn, hook):
        tracer = self
        stack = self._stack
        wall = time.perf_counter
        cpu = time.thread_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sink = tracer.sink
            if sink is None:
                return fn(*args, **kwargs)
            outermost = not stack
            frame = [0.0]
            stack.append(frame)
            started = wall()
            began = cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = cpu() - began
                stack.pop()
                sink.self_s[layer] += elapsed - frame[0]
                sink.calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed
                else:
                    sink.outer_s += elapsed
            if hook is not None:
                hook(sink, started, outermost, args, result)
            return result

        return wrapper

    def _patch(self, owner, name, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def install(self) -> "Tracer":
        for layer, cls, name in METHODS:
            original = cls.__dict__[name]
            hook = HOOKS.get((cls, name))
            self._patch(cls, name, self._wrap(layer, original, hook))
        for layer, fn in FUNCTIONS:
            wrapper = self._wrap(layer, fn, HOOKS.get(fn))
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if not name.startswith("repro.") or name == fn.__module__:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
