# Developer entry points.  The repo has no runtime dependencies; the
# dev extras (pytest, pytest-benchmark, hypothesis, ruff, mypy) come
# from `pip install -e .[dev]`.

PYTEST = PYTHONPATH=src python -m pytest

.PHONY: test smoke bench perf-trajectory perfbench profile crashtest lint lint-baseline typecheck

# Tier-1 verification: the full suite, exactly as CI runs it.
test:
	$(PYTEST) -x -q

# Fast feedback loop: everything except the `slow` marker (process
# pools, long sweeps).  Use while iterating; run `make test` before
# shipping.
smoke:
	$(PYTEST) -x -q -m "not slow"

# Engine micro-benchmarks (pytest-benchmark timings).
bench:
	$(PYTEST) benchmarks/bench_engine_perf.py -q --benchmark-only

# Append packet-steps/sec for the current tree to BENCH_engine.json.
perf-trajectory:
	python benchmarks/bench_report.py

# The end-to-end benchmark's own tests (perfbench/, declared by
# BENCHMARK.json): every workload at toy size, repeatable trace
# counts, calibration and failed-case detection; about half a minute.
perfbench:
	python3 -m pytest perfbench/tests -q

# Phase-time table for the benchmark configuration (lean kernel loop,
# wall-clock timestamps from repro.obs.clock around each phase).
profile:
	PYTHONPATH=src python -m repro profile --side 16 --k 256

# Kill-and-resume sweep: every engine x backend combination is
# snapshotted at every checkpoint boundary and resumed, the durability
# layer is run under injected fsync/ENOSPC/SIGKILL faults, and a real
# worker pool is SIGKILLed mid-campaign and resumed from its log
# (see docs/robustness.md for the failure model).
crashtest:
	PYTHONPATH=src python -m repro.chaos.crashtest all

# Static analysis (repro.lint) plus ruff, when available.  The custom
# linter is the gate — it has no third-party dependencies and must
# pass everywhere; --strict-new applies the committed
# lint-baseline.json ratchet, so only findings the baseline does not
# record fail.  ruff is skipped gracefully on bare containers.
lint:
	PYTHONPATH=src python -m repro lint src/repro --strict-new
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping style check"; \
	fi

# Regenerate the committed findings baseline after triaging real
# findings (see docs/lint-rules.md for the ratchet semantics).
lint-baseline:
	PYTHONPATH=src python -m repro lint src/repro --write-baseline

# mypy gate: strict on repro.core / repro.mesh / repro.lint /
# repro.obs / repro.dynamic / repro.faults, baseline elsewhere (see
# pyproject.toml and docs/typing-baseline.md).
typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed; skipping type check"; \
	fi
