PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test verify lint obs transform bench bench-check bench-write report

test:
	$(PYTHON) -m pytest -x -q

# Static analysis: ruff over the Python sources (skipped when ruff is
# not installed) plus the IR dataflow/dependence linter (docs/LINT.md).
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "ruff not installed; skipping style check"; \
	fi
	$(PYTHON) -m repro lint --suite all --baseline lint-baseline.json

# The correctness harness: the pytest side plus the CLI entry point
# (see docs/VERIFY.md).
verify:
	$(PYTHON) -m pytest -q -m verify
	$(PYTHON) -m repro verify --seed 0

# Observability: the tracing/metrics determinism test set
# (see docs/OBSERVABILITY.md).
obs:
	$(PYTHON) -m pytest -q -m obs

# Dependence-proven loop rewrites: the transform test set plus a CLI
# run with the subsetting-stability audit (see docs/TRANSFORM.md).
transform:
	$(PYTHON) -m pytest -q -m transform
	$(PYTHON) -m repro --scale 0.3 transform --suite nr \
		--pass tile=4,interchange,fuse --stability

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Gate the clustering hot path and the cache simulator against their
# committed performance trajectories (machine-independent speedup
# ratios; docs/PERFORMANCE.md).
bench-check:
	$(PYTHON) benchmarks/clustering_trajectory.py --check
	$(PYTHON) benchmarks/simulation_trajectory.py --check

# Refresh BENCH_clustering.json / BENCH_simulation.json after a
# deliberate perf change.
bench-write:
	$(PYTHON) benchmarks/clustering_trajectory.py --write
	$(PYTHON) benchmarks/simulation_trajectory.py --write

report:
	$(PYTHON) -m repro report
