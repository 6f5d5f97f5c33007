# Developer entry points. Everything runs from the repo root with the
# in-tree sources on PYTHONPATH, so no install step is required.

PY ?= python
export PYTHONPATH := src

.PHONY: test lint bench-smoke bench docs-check coverage check

# tier-1 test suite (the gate every change must keep green)
test:
	$(PY) -m pytest -x -q

# ruff over the whole tree (config in ruff.toml); CI installs ruff and
# enforces this — locally the target degrades to a notice when the
# container does not ship ruff, rather than masking real failures
lint:
	@if $(PY) -c "import ruff" 2>/dev/null; then \
		$(PY) -m ruff check .; \
	else \
		echo "lint: ruff is not installed here; skipping (CI installs and enforces it)"; \
	fi

# the engine-centric benchmarks: cold/warm batches and the analysis breakdown
bench-smoke:
	$(PY) -m pytest -q -s benchmarks/bench_scaling_containment.py benchmarks/bench_pipeline_breakdown.py

# every benchmark suite. bench_*.py files are deliberately not auto-collected,
# so they are discovered here — and the discovery is checked: an empty match
# (e.g. after a rename) fails loudly instead of silently running nothing.
BENCH_FILES := $(wildcard benchmarks/bench_*.py)
bench:
	@if [ -z "$(BENCH_FILES)" ]; then \
		echo "bench: no benchmarks/bench_*.py files matched — wildcard is broken or suites were moved" >&2; \
		exit 1; \
	fi
	@echo "bench: discovered $(words $(BENCH_FILES)) suites: $(BENCH_FILES)"
	$(PY) -m pytest -q -s -rs $(BENCH_FILES)

# execute README/docs code blocks and validate internal doc references
docs-check:
	$(PY) tools/docs_check.py

# tier-1 suite under coverage (requires pytest-cov; CI compares the total
# against the recorded baseline in .github/coverage-baseline.txt)
coverage:
	$(PY) -m pytest -x -q --cov=repro --cov-report=term --cov-report=json

check: lint test docs-check
