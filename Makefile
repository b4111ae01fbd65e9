# Developer checks for the USTA reproduction.
#
# `make check` is what CI runs on every PR: the tier-1 test suite plus a
# smoke run of the batched experiment runtime (table1 through a 2-worker
# process pool at a tiny duration scale) and of the online policy-session
# driver (`repro serve --smoke`), the cold set-up parity stamps, plus the
# repository benchmark's self-test.
# `plane-residency` checks that the default serving policy runs every
# session on the resident plane.
# `make lint` needs ruff on the PATH.
#
# The coverage gate (--cov=repro --cov-fail-under=80) switches on
# automatically when pytest-cov is installed (CI installs it); without it the
# suite runs plain so laptops with the bare toolchain keep working.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

# Recursively expanded (=) so the probe only runs for targets that use it.
COV_FLAGS = $(shell $(PYTHON) -c "import importlib.util as u; print('--cov=repro --cov-fail-under=80' if u.find_spec('pytest_cov') else '')")

.PHONY: check test coverage smoke serve-smoke plane-residency stream-smoke bench-smoke setup-smoke fleet-smoke serve-load-smoke hal-smoke perfbench-selftest golden lint bench-baseline

check: test smoke serve-smoke plane-residency stream-smoke bench-smoke setup-smoke fleet-smoke serve-load-smoke hal-smoke perfbench-selftest

test:
	$(PYTHON) -m pytest -x -q $(COV_FLAGS)

coverage:  # hard-requires pytest-cov (what CI effectively runs via `test`)
	$(PYTHON) -m pytest -q --cov=repro --cov-fail-under=80

golden:
	$(PYTHON) -m repro golden

smoke:
	$(PYTHON) -m repro table1 --scale 0.05 --jobs 2

serve-smoke:
	$(PYTHON) -m repro serve --smoke

# Every session of the default serving policy (USTA over the deployed REPTree
# predictor) must ride the resident session plane: a predictor model that
# stops declaring batch-row invariance would silently send them all to the
# scalar pool.  Fails unless the dry run reports 20 of 20 resident.
plane-residency:
	$(PYTHON) -m repro serve --explain-plane --sessions 20 --scale 0.05 | grep "20 of 20 session(s) resident"

# Exercises the crash-safe streaming path end to end: a tiny sweep streamed
# to sharded JSONL, then the same sweep again with --resume (which must skip
# every persisted cell and rebuild the table from the shards).
stream-smoke:
	rm -rf .stream-smoke
	$(PYTHON) -m repro sweep --scale 0.02 --model linear_regression --stream-to .stream-smoke
	$(PYTHON) -m repro sweep --scale 0.02 --model linear_regression --stream-to .stream-smoke --resume
	rm -rf .stream-smoke

# Perf gate for the heterogeneous vectorized engine: a scaled-down
# mixed-trace sweep must run bit-identical to — and clearly faster than —
# sequential execution, and the managed (USTA + comfort-loop) variant must
# beat the same batch with per-member scalar managers (generous thresholds;
# they catch scalar-fallback regressions, not machine noise).
bench-smoke:
	$(PYTHON) benchmarks/bench_batch_runtime.py --smoke

# Parity gate for the cold set-up path (traces -> logged training data ->
# REPTree): times the stages once at 1/15 of the benchmark durations, then
# checks the pinned stamps of tests/test_setup_parity.py (trace columns,
# training records, REPTree node arrays, REPTree/M5P predictions).
setup-smoke:
	$(PYTHON) benchmarks/bench_setup.py --smoke

# Fault-tolerance gate for the fleet executor: a tiny 2-worker distributed
# sweep with one worker SIGKILLed mid-run must still finish, the merged store
# must be byte-identical to the single-process streaming run, and a resumed
# coordinator must answer the whole plan from disk.
fleet-smoke:
	$(PYTHON) -m repro.fleet.smoke

# Load gate for the persistent serving front end: request-level parity
# between the resident session plane and the plane-disabled scalar pool
# (bit-identical decision wire), a >=1.5x plane-over-scalar throughput floor,
# in-process feed throughput and single-feed latency over thousands of
# sessions, a socket RTT check, and 1-vs-2 worker fleet parity (generous
# thresholds; catches per-feed retrain-style collapses, not machine noise).
serve-load-smoke:
	$(PYTHON) benchmarks/bench_serve_load.py --smoke

# Real-device ingestion gate: parse the committed dumpsys-thermal fixture
# (torn entries, placeholder channels, cached-vs-current merge), replay it
# through `serve --hal-trace` with the trip-point example policy, and score
# USTA vs. trip-point on the same trace via `hal-compare`.
hal-smoke:
	$(PYTHON) -m repro.telemetry.smoke

# The repository benchmark's self-test: all four perfbench workloads at
# reduced size, each run untraced and traced.  Fails if an output check fails
# or the traced digest differs from the untraced one — which is what keeps
# the streamed record path reachable through perfbench's timing proxies.
perfbench-selftest:
	$(PYTHON) perfbench/selftest.py

lint:
	$(PYTHON) -m ruff check .

bench-baseline:
	$(PYTHON) benchmarks/bench_batch_runtime.py
