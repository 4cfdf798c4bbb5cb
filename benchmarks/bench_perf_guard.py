"""Perf guard — ops/sec for the containment hot path, recorded to JSON.

Runs a fixed pattern corpus through :func:`repro.core.containment.contains`
and the canonical engine, measures operations per second, and compares the
bitset engine against the preserved seed implementation
(:mod:`repro.core.embedding_reference`) on patterns with ≥ 4 descendant
edges.  Results are written to ``BENCH_containment.json`` at the repo
root so future PRs can diff against this PR's baseline:

    make bench-containment   # measure + floor-check + rewrite the JSON
    make bench-check         # measure + floor-check only (CI guard)

Two columns per speedup case:

* ``seed_ops_per_sec`` — the preserved per-set-bit seed implementation;
* ``bitset_ops_per_sec`` — a **cold** containment call (all caches
  cleared first): engine construction + the word-parallel DP over every
  model.

**Floors are checked into the JSON** (``floors``) and enforced on every
run: a measurement below its floor makes the script exit non-zero
*without* rewriting the JSON, so perf regressions fail loudly instead of
silently re-baselining.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

from repro.core.containment import canonical_containment, clear_cache, contains
from repro.core.embedding_reference import reference_canonical_containment
from repro.patterns.parse import parse_pattern

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_containment.json"

#: Fixed corpus for the ``contains`` ops/sec smoke number: a mix of
#: hom-complete pairs (PTIME path) and coNP pairs (canonical engine).
CONTAINS_CORPUS = [
    ("a/b/c", "a//c"),
    ("a[b]/c", "a/c"),
    ("a[b][c]/d", "a[c]/d"),
    ("a//*/e", "a/*//e"),
    ("a//b[c]", "a//b"),
    ("a/*//e", "a//*/e"),
    ("a//*/*/e", "a/*/*//e"),
    ("a[.//x]/b", "a/b"),
    ("a//b//c[d]", "a//c[d]"),
    ("a//a", "a//*"),
]

#: Canonical-engine cases with ≥ 4 descendant edges — the acceptance
#: target for the bitset engine's speedup over the seed implementation.
SPEEDUP_CASES = {
    "4-desc-edges-bound-2": ("a//*//*//*//*/e[x]", "a//e[x]"),
    "4-desc-edges-bound-5": ("a//b//c//d//e[x]", "a//*/*/*/e[x]"),
    "5-desc-edges-bound-4": ("a//b[c//d]//e//f//g", "a//*/*/g"),
}

#: Per-measurement floors, embedded in the JSON and enforced on every
#: run.  ``speedup``: cold bitset vs seed.
FLOORS = {
    "contains_corpus_ops_per_sec": 2000.0,
    "speedup": {
        "4-desc-edges-bound-2": 3.0,
        "4-desc-edges-bound-5": 3.0,
        "5-desc-edges-bound-4": 3.0,
    },
}


def _ops_per_sec(fn, min_seconds: float = 1.0, min_rounds: int = 3) -> float:
    fn()  # warmup
    rounds = 0
    start = time.perf_counter()
    while True:
        fn()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds and rounds >= min_rounds:
            return rounds / elapsed


def measure_contains_corpus() -> float:
    """Uncached ``contains`` throughput over the fixed corpus."""
    pairs = [
        (parse_pattern(a), parse_pattern(b)) for a, b in CONTAINS_CORPUS
    ]

    def run() -> None:
        clear_cache()
        for p1, p2 in pairs:
            contains(p1, p2)

    per_corpus = _ops_per_sec(run)
    return per_corpus * len(pairs)


def measure_speedups() -> dict[str, dict]:
    """Seed vs cold bitset on the ≥4-descendant cases."""
    results: dict[str, dict] = {}
    for name, (a, b) in SPEEDUP_CASES.items():
        p1, p2 = parse_pattern(a), parse_pattern(b)
        clear_cache()
        assert canonical_containment(p1, p2) == (
            reference_canonical_containment(p1, p2)
        ), f"engine disagreement on {name}"

        def cold() -> None:
            clear_cache()
            canonical_containment(p1, p2)

        bitset = _ops_per_sec(cold)
        seed = _ops_per_sec(lambda: reference_canonical_containment(p1, p2))
        results[name] = {
            "bitset_ops_per_sec": round(bitset, 2),
            "seed_ops_per_sec": round(seed, 2),
            "speedup": round(bitset / seed, 2),
        }
    return results


def run_guard() -> dict:
    report = {
        "generated_by": "benchmarks/bench_perf_guard.py",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cache_state": "cold",
        "contains_corpus_ops_per_sec": round(measure_contains_corpus(), 2),
        "speedup_vs_seed": measure_speedups(),
        "floors": FLOORS,
    }
    return report


def floor_violations(report: dict) -> list[str]:
    """Every measurement in ``report`` below its recorded floor."""
    floors = report.get("floors", FLOORS)
    problems: list[str] = []
    corpus_floor = floors["contains_corpus_ops_per_sec"]
    corpus = report["contains_corpus_ops_per_sec"]
    if corpus < corpus_floor:
        problems.append(
            f"contains_corpus_ops_per_sec {corpus} < floor {corpus_floor}"
        )
    for name, row in report["speedup_vs_seed"].items():
        floor = floors["speedup"].get(name)
        if floor is not None and row["speedup"] < floor:
            problems.append(f"{name}: speedup {row['speedup']} < floor {floor}")
    return problems


def write_report(report: dict) -> None:
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")


# ----------------------------------------------------------------------
# pytest wrapper (soft smoke assertions)
# ----------------------------------------------------------------------

def test_perf_guard(report=None):
    guard = run_guard()
    if report is not None:
        report(json.dumps(guard, indent=2))
    assert floor_violations(guard) == []
    write_report(guard)


if __name__ == "__main__":
    check_only = "--check" in sys.argv[1:]
    result = run_guard()
    if check_only and RESULT_PATH.exists():
        # The committed JSON's floors are the contract; the in-script
        # table only seeds fresh baselines.
        committed = json.loads(RESULT_PATH.read_text())
        result["floors"] = committed.get("floors", FLOORS)
    print(json.dumps(result, indent=2))
    problems = floor_violations(result)
    if problems:
        print("\nFLOOR VIOLATIONS (JSON not rewritten):", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        sys.exit(1)
    if check_only:
        print(f"\nfloors OK against {RESULT_PATH} (check mode: not rewritten)")
    else:
        write_report(result)
        print(f"\nfloors OK; written to {RESULT_PATH}")
