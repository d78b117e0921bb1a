# Convenience targets for the IP-leasing reproduction.

PYTHON ?= python

.PHONY: install test coverage lint check check-warm ratchet-update docs golden-dumps bench perfbench-test bench-pipeline bench-xlarge bench-serve bench-stream bench-temporal report data clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

coverage:
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/ --cov=repro --cov-report=term --cov-fail-under=90

lint: check
	$(PYTHON) scripts/lint.py

check:
	PYTHONPATH=src $(PYTHON) -m repro.cli check --fail-on warning
	PYTHONPATH=src $(PYTHON) -m repro.check.ratchet compare

# Prove the warm cache path is actually exercised: run check twice and
# assert the second run reused at least one cached module.
check-warm:
	PYTHONPATH=src $(PYTHON) -m repro.cli check --fail-on never >/dev/null
	PYTHONPATH=src $(PYTHON) -m repro.cli check --fail-on never --format json --stats \
		| $(PYTHON) -c "import json,sys; d=json.load(sys.stdin); \
assert d['cache']['reused'] > 0, d.get('cache'); \
print('warm cache OK: reused', d['cache']['reused'], 'modules,', d['cache']['analyzed'], 'analyzed')"

ratchet-update:
	PYTHONPATH=src $(PYTHON) -m repro.check.ratchet update

docs:
	PYTHONPATH=src $(PYTHON) -m repro.diagnostics > docs/DIAGNOSTICS.md
	PYTHONPATH=src $(PYTHON) -m repro.check > docs/STATIC_ANALYSIS.md

# Per-file sha256 of every dump write_world writes; the small world is
# pinned by tier-1, the medium one by CI. Regenerate only on purpose.
golden-dumps:
	PYTHONPATH=src $(PYTHON) scripts/dump_digests.py --world small --seed 7 \
		--out tests/golden/dumps_small_world.sha256
	PYTHONPATH=src $(PYTHON) scripts/dump_digests.py --world medium --seed 20240402 \
		--out tests/golden/dumps_medium_seed1.sha256

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Tests of the end-to-end benchmark harness (perfbench/, about a minute).
perfbench-test:
	$(PYTHON) -m pytest perfbench/tests -q

bench-pipeline:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --out BENCH_pipeline.json

# Full internet-scale tier with the peak-RSS column; takes minutes
# (world build dominates). See PERFORMANCE.md.
bench-xlarge:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --out BENCH_pipeline.json \
		--sizes xlarge --repeats 1 --no-extensions --memory

bench-serve:
	PYTHONPATH=src $(PYTHON) -m repro.cli loadgen --out BENCH_serve.json

bench-stream:
	PYTHONPATH=src $(PYTHON) -m repro.cli stream --size large --out BENCH_stream.json

bench-temporal:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench-temporal --size small --epochs 12 --out BENCH_temporal.json

report:
	$(PYTHON) -m repro.cli report --out REPORT.md

data:
	$(PYTHON) -m repro.cli generate --out data/

clean:
	rm -rf data/ REPORT.md .pytest_cache .benchmarks .repro-check-cache.json
	find . -name __pycache__ -type d -exec rm -rf {} +
