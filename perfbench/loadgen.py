"""Open-loop passes: Poisson arrivals driven from one thread and one loop.

Operation ``i`` is due at ``unit_offsets[i] / rate`` seconds after the
pass starts, whether or not earlier requests have been answered.  Latency
runs from that due time to the answer, so a stall also charges the
requests that queued behind it.  How late the generator itself submitted
is recorded separately.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field

from .fleet import Fleet
from .stacks import Stack


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of a non-empty list."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered)) - 1
    return ordered[min(len(ordered) - 1, max(rank, 0))]


@dataclass
class PassResult:
    reads: int = 0
    attempted: int = 0
    failed: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    write_ms: list[float] = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)
    #: From the pass's start to its last answer.
    busy_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    front_counters: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(reason)


def run_pass(
    stack: Stack,
    fleet: Fleet,
    oracle: dict[tuple[str, str], list[int]],
    rate: float,
    count: int,
    on_due=None,
) -> PassResult:
    """Drive the first ``count`` operations of ``fleet`` at ``rate``.

    ``on_due(doc_id, due)`` is called with each read's due time on the
    ``time.perf_counter`` clock (the traced run maps reads to the layer
    calls serving them).  A read fails when it is refused, raises or
    answers differently from the oracle; a write fails when it raises.
    """
    result = PassResult()
    replica_set = stack.replica_set

    async def drive() -> None:
        now = time.perf_counter
        pending: list[tuple[tuple[str, str], float, asyncio.Future]] = []
        done_at: dict[int, float] = {}
        front = stack.front()
        async with front:
            start = now()
            for op, offset in zip(fleet.ops[:count], fleet.unit_offsets):
                due = start + offset / rate
                delay = due - now()
                if delay > 0:
                    await asyncio.sleep(delay)
                result.late_ms.append(max(0.0, now() - due) * 1000.0)
                result.attempted += 1
                if op.write is not None:
                    began = now()
                    try:
                        replica_set.define_views(op.doc_id, [op.write])
                    except Exception as exc:  # counted; the pass goes on
                        result.fail(f"write {op.xpath!r}: {exc!r}")
                        continue
                    result.write_ms.append((now() - began) * 1000.0)
                    continue
                try:
                    future = await front.submit(op.doc_id, op.xpath)
                except Exception as exc:  # a refused request; counted
                    result.fail(f"submit {op.xpath!r}: {exc!r}")
                    continue
                result.reads += 1
                if on_due is not None:
                    on_due(op.doc_id, due)
                key = len(pending)
                future.add_done_callback(
                    lambda _f, k=key: done_at.setdefault(k, now())
                )
                pending.append(((op.doc_id, op.xpath), due, future))
        # Leaving the context drained the front end: every future is done.
        result.busy_s = max(done_at.values(), default=start) - start
        result.front_counters = front.counters()
        for key, (request, due, future) in enumerate(pending):
            if future.cancelled():
                result.fail(f"cancelled {request!r}")
                continue
            exc = future.exception()
            if exc is not None:
                result.fail(f"{request!r}: {exc!r}")
                continue
            result.latencies_ms.append((done_at[key] - due) * 1000.0)
            if future.result() != oracle[request]:
                result.fail(f"wrong answer for {request!r}")

    wall, cpu = time.perf_counter(), time.process_time()
    asyncio.run(drive())
    result.wall_s = time.perf_counter() - wall
    result.cpu_s = time.process_time() - cpu
    return result
