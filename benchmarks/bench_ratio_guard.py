"""Ratio guard — view_plan_ratio floors, enforced without re-baselining.

The fraction of queries answered from views (single-view *or*
intersection plans) is deterministic for a fixed workload config + seed:
no timing, no machine noise.  That makes it a pure planning-regression
tripwire — if the rewrite search, the advisor, or the intersection
planner loses coverage, these ratios drop and this guard fails loudly.

Floors live in the committed benchmark JSONs (``BENCH_replay.json`` /
``BENCH_catalog.json`` under ``floors``), written there by their own
benchmark scripts; this guard only *reads* them — it never rewrites a
baseline.  Five checks:

* the two replay scenarios (re-measured here; cheap and deterministic);
* the batched-serving stream's single-call ratio (re-measured);
* the multi-document catalog replay ratio (re-measured);
* the catalog *serving* ratios (``view_plan_ratio`` and
  ``intersection_plan_ratio``) — re-measured by one inline pass over the
  serving stream (:func:`bench_catalog.measure_serving_ratios`, no pool
  passes; about 11 s on a 2-vCPU host).  Its fragment views and
  ``tractable_only=False`` make it the one gate on intersection plans;
* the observability layer's record (PR 10) — the committed
  ``tracing_overhead.overhead_ratio`` must not exceed its embedded
  ``ceiling`` (1.05): instrumentation that costs more than 5% on the
  replay path is a regression.  Checked against the record only
  (``make bench-replay`` refreshes it), so the guard never flakes on
  machine load.

Run with:

    make bench-check      # or: PYTHONPATH=src python benchmarks/bench_ratio_guard.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import bench_catalog
import bench_replay
from repro.workloads.replay import (
    CatalogReplayConfig,
    ReplayConfig,
    replay_catalog,
    replay_workload,
)

REPO_ROOT = BENCH_DIR.parent
REPLAY_JSON = REPO_ROOT / "BENCH_replay.json"
CATALOG_JSON = REPO_ROOT / "BENCH_catalog.json"


def _committed(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def measure_ratios() -> dict:
    """Re-measure every deterministic ratio (no pool passes)."""
    replay_ratios = {
        name: round(
            replay_workload(config, seed=bench_replay.REPLAY_SEED)
            .view_plan_ratio,
            3,
        )
        for name, config in bench_replay.REPLAY_SCENARIOS.items()
    }
    batched = replay_workload(
        ReplayConfig(
            stream=bench_replay.BATCH_STREAM,
            document_size=bench_replay.BATCH_DOCUMENT_SIZE,
            max_views=bench_replay.BATCH_MAX_VIEWS,
            batch_size=1,
        ),
        seed=bench_replay.REPLAY_SEED,
    )
    catalog = replay_catalog(
        CatalogReplayConfig(**bench_catalog.REPLAY_CONFIG),
        seed=bench_catalog.REPLAY_SEED,
    )
    return {
        "generated_by": "benchmarks/bench_ratio_guard.py",
        "replay": replay_ratios,
        "batched_serving": round(batched.view_plan_ratio, 3),
        "catalog_replay": round(catalog.view_plan_ratio, 3),
        "serving": bench_catalog.measure_serving_ratios(),
    }


def floor_violations(
    measured: dict, replay_report: dict, catalog_report: dict
) -> list[str]:
    """Every ratio below its committed floor (in-script tables seed
    fresh checkouts whose JSONs predate the floors)."""
    replay_floors = replay_report.get("floors", {}).get(
        "view_plan_ratio", bench_replay.RATIO_FLOORS
    )
    catalog_floors = catalog_report.get(
        "floors", bench_catalog.RATIO_FLOORS
    )
    problems: list[str] = []
    for name, ratio in measured["replay"].items():
        floor = replay_floors["replay"].get(name)
        if floor is not None and ratio < floor:
            problems.append(
                f"replay {name}: view_plan_ratio {ratio} < floor {floor}"
            )
    if measured["batched_serving"] < replay_floors["batched_serving"]:
        problems.append(
            f"batched_serving: view_plan_ratio "
            f"{measured['batched_serving']} < floor "
            f"{replay_floors['batched_serving']}"
        )
    catalog_floor = catalog_floors["catalog_replay_view_plan_ratio"]
    if measured["catalog_replay"] < catalog_floor:
        problems.append(
            f"catalog_replay: view_plan_ratio "
            f"{measured['catalog_replay']} < floor {catalog_floor}"
        )
    for key, floor_key in (
        ("view_plan_ratio", "serving_view_plan_ratio"),
        ("intersection_plan_ratio", "serving_intersection_plan_ratio"),
    ):
        ratio = measured["serving"][key]
        floor = catalog_floors[floor_key]
        if ratio < floor:
            problems.append(f"serving: {key} {ratio} < floor {floor}")
    overhead = replay_report.get("tracing_overhead")
    if overhead is not None:
        ratio = overhead.get("overhead_ratio")
        ceiling = overhead.get(
            "ceiling", bench_replay.TRACING_OVERHEAD_CEILING
        )
        if ratio is not None and ratio > ceiling:
            problems.append(
                f"tracing_overhead (committed): overhead_ratio {ratio} "
                f"> ceiling {ceiling} — observability must stay within "
                "5% of the untraced replay"
            )
    return problems


# ----------------------------------------------------------------------
# pytest wrapper
# ----------------------------------------------------------------------

def test_ratio_guard(report=None):
    measured = measure_ratios()
    if report is not None:
        report(json.dumps(measured, indent=2))
    problems = floor_violations(
        measured, _committed(REPLAY_JSON), _committed(CATALOG_JSON)
    )
    assert problems == [], problems


if __name__ == "__main__":
    result = measure_ratios()
    print(json.dumps(result, indent=2))
    violations = floor_violations(
        result, _committed(REPLAY_JSON), _committed(CATALOG_JSON)
    )
    if violations:
        print("\nRATIO FLOOR VIOLATIONS:", file=sys.stderr)
        for violation in violations:
            print(f"  - {violation}", file=sys.stderr)
        sys.exit(1)
    print("\nview-plan ratio floors OK (baselines never rewritten here)")
