# Developer entry points.  Everything assumes an in-tree checkout; no
# install step is needed beyond the test extras (pytest, hypothesis,
# pytest-benchmark).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint typecheck bench bench-smoke bench-perf bench-cold figures clean

test:                ## tier-1 suite (unit + integration + property)
	$(PYTHON) -m pytest tests/ -x -q

lint:                ## static checks (requires ruff)
	ruff check src tests benchmarks examples

typecheck:           ## mypy over the typed layers (requires mypy)
	mypy --ignore-missing-imports src/repro/analysis src/repro/runtime src/repro/gfw src/repro/service src/repro/protocols

bench:               ## every paper table/figure benchmark + ablations
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# One cached benchmark per layer: the runtime-backed ablation matrices
# (experiments -> GFW -> runtime cache), the impairment grid (fault
# paths + TCP retransmission), and one probesim figure.  Runs leave
# results + manifests under benchmarks/output/runs/.
bench-smoke:
	$(PYTHON) -m pytest \
	    benchmarks/ablations/test_defense_matrix.py \
	    benchmarks/ablations/test_detector_features.py \
	    benchmarks/ablations/test_impairment_matrix.py \
	    benchmarks/test_fig10b_aead_reactions.py \
	    --benchmark-only -q

# Perf regression gate: quick `repro bench` run compared against the
# committed baseline.  Tolerance is deliberately loose — hosts differ —
# so only order-of-magnitude regressions fail.
bench-perf:
	$(PYTHON) -m repro bench --quick --out-dir /tmp/bench-perf \
	    --compare benchmarks/baselines/bench_quick.json --tolerance 0.1

# Cold floors: a 5 s bench/run.py run of each workload must be correct,
# with no failed operation, and read at least 0.1x its committed median
# in benchmarks/baselines/bench_cold.json.
bench-cold:
	$(PYTHON) benchmarks/cold_floors.py

# The paper's figures, tables and ablations (29 benchmarks, timing off),
# every example script (stops at the first that fails), then a check
# that the committed renditions under benchmarks/output/ match the run.
figures:
	$(PYTHON) -m pytest benchmarks/ --benchmark-disable -q
	for script in examples/*.py; do \
	    echo "== $$script"; \
	    $(PYTHON) "$$script" || exit 1; \
	done
	git diff --exit-code -- benchmarks/output/

clean:
	rm -rf runs benchmarks/output/runs .pytest_cache .hypothesis
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
