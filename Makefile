PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-unit test-fast test-soak lint bench bench-check bench-containment bench-replay bench-catalog bench-all docs-check serve-check trace-check

## Full local gate: lint, the tier-1 suite, docs drift, the benchmark
## floors (perf + view-plan ratios) and the end-to-end serving and
## tracing checks — everything a PR must keep green.
test: lint test-unit docs-check bench-check serve-check trace-check

## Tier-1 test suite alone (the driver's gate).
test-unit:
	$(PYTHON) -m pytest -x -q

## Quick suite: deselects the long-running Hypothesis property suites,
## the process-spawning multicore suite, the serving-tier /
## fault-injection suites (PR 8), and the replicated read-tier suites
## (PR 9).
test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow and not multicore and not async_serve and not faultinject and not replica"

## Soak: sweep the open-loop serving replay over many seeds, asserting
## answer bit-identity per seed.  SOAK_SEEDS sets the sweep width
## (default 2 keeps the tier-1 run fast; CI can raise it).
test-soak:
	SOAK_SEEDS=8 $(PYTHON) -m pytest tests/test_serve_async.py -q -m soak

## Exception-handler hygiene: no bare except / swallowed interrupts
## (stdlib AST checker; the container has no ruff).
lint:
	$(PYTHON) tools/lint_exceptions.py

## Aggregate: every recorded benchmark JSON at the repo root.
## Compare the JSONs against the committed baselines before/after a PR.
bench: bench-containment bench-replay bench-catalog

## Perf guard: records ops/sec + speedup-vs-seed to BENCH_containment.json.
bench-containment:
	$(PYTHON) benchmarks/bench_perf_guard.py

## Regression gate: re-measures and exits non-zero if any number falls
## below the floors committed in the BENCH JSONs (never rewrites them).
## Two halves: perf floors (ops/sec) and deterministic view-plan-ratio
## floors (planning coverage).
bench-check:
	$(PYTHON) benchmarks/bench_perf_guard.py --check
	$(PYTHON) benchmarks/bench_ratio_guard.py

## Workload replay + batched advisor: records queries/sec and the
## batched-vs-solver advisor speedup to BENCH_replay.json.
bench-replay:
	$(PYTHON) benchmarks/bench_replay.py

## Catalog subsystem: records warm-start speedup, replay bit-identity
## and sharded-serving throughput to BENCH_catalog.json.
bench-catalog:
	$(PYTHON) benchmarks/bench_catalog.py

## Full paper-claims benchmark battery (pytest-benchmark based).
bench-all:
	$(PYTHON) -m pytest benchmarks/bench_*.py -q

## Documentation drift guard: executes every README code block.
docs-check:
	$(PYTHON) -m pytest tests/test_docs.py -q

## End-to-end serving check: a short run of every perfbench workload
## (inline, hot, pool, replicas) with each answer checked against
## direct evaluation.  trace-check makes the same run with perfbench's
## outside-in tracer installed (it patches serving entry points and
## reads their arguments by position), printing each workload's
## per-layer reconciliation line.  Each fails unless the run exits 0
## and its last line reports "correct": true.
serve-check: PERFBENCH_ARGS = --workload all --seconds 4
trace-check: PERFBENCH_ARGS = --workload all --seconds 4 --trace 1
serve-check trace-check:
	@out=$$($(PYTHON) perfbench/run.py $(PERFBENCH_ARGS)) \
		|| { printf '%s\n' "$$out"; echo "$@: run failed" >&2; exit 1; }; \
	printf '%s\n' "$$out"; \
	printf '%s\n' "$$out" | tail -n 1 | grep -q '"correct": true' \
		|| { echo '$@: last line does not report "correct": true' >&2; exit 1; }
