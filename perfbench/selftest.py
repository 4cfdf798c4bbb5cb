"""Self-test: the benchmark counts a wrong answer as a failed operation.

Runs one short inline pass twice on the committed seed: once against the
true direct-evaluation oracle (no failures expected), once with one
oracle entry corrupted (every request for that entry must fail).  Exits
non-zero if either expectation does not hold::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench.fleet import (  # noqa: E402
    DOCUMENT_NODES,
    MIX,
    build_fleet,
    build_oracle,
)
from perfbench.loadgen import run_pass  # noqa: E402
from perfbench.stacks import Stack  # noqa: E402

REQUESTS = 96
RATE = 200.0


def failures(fleet, oracle) -> int:
    stack = Stack(fleet, workers=0, replicas=0, work_dir=ROOT / ".perfbench")
    try:
        return run_pass(stack, fleet, oracle, RATE, len(fleet.ops)).failed
    finally:
        stack.close()


def main() -> int:
    fleet = build_fleet(1, MIX, REQUESTS, writes=False)
    oracle = build_oracle(fleet)
    clean = failures(fleet, oracle)

    target = fleet.reads[0]
    corrupted = dict(oracle)
    # A preorder index past the last node: no serving path can return it.
    corrupted[target] = oracle[target] + [DOCUMENT_NODES]
    expected = fleet.reads.count(target)
    counted = failures(fleet, corrupted)

    print(f"true oracle: {clean} failed of {REQUESTS} (expected 0)")
    print(
        f"one corrupted answer: {counted} failed of {REQUESTS} "
        f"(expected {expected}, the requests for {target!r})"
    )
    ok = clean == 0 and counted == expected
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
