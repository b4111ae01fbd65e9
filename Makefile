# Developer checks for the USTA reproduction.
#
# `make check` is what CI runs on every PR: the tier-1 test suite plus a
# smoke run of the batched experiment runtime (table1 through the in-process
# vectorized runner at a tiny duration scale) and of the online policy-session
# driver (`repro serve --smoke`), the cold set-up parity stamps, plus the
# repository benchmark's self-test.
# `plane-residency` checks that serving sessions and sweep members stay on
# the policy plane.
# `make lint` needs ruff on the PATH.
#
# The coverage gate (--cov=repro --cov-fail-under=80) switches on
# automatically when pytest-cov is installed (CI installs it); without it the
# suite runs plain so laptops with the bare toolchain keep working.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

# Recursively expanded (=) so the probe only runs for targets that use it.
COV_FLAGS = $(shell $(PYTHON) -c "import importlib.util as u; print('--cov=repro --cov-fail-under=80' if u.find_spec('pytest_cov') else '')")

.PHONY: check test coverage smoke serve-smoke plane-residency stream-smoke bench-smoke setup-smoke fleet-smoke serve-load-smoke hal-smoke perfbench-selftest golden lint loc bench-baseline

check: test smoke serve-smoke plane-residency stream-smoke bench-smoke setup-smoke fleet-smoke serve-load-smoke hal-smoke perfbench-selftest

test:
	$(PYTHON) -m pytest -x -q $(COV_FLAGS)

coverage:  # hard-requires pytest-cov (what CI effectively runs via `test`)
	$(PYTHON) -m pytest -q --cov=repro --cov-fail-under=80

golden:
	$(PYTHON) -m repro golden

smoke:
	$(PYTHON) -m repro table1 --scale 0.05

serve-smoke:
	$(PYTHON) -m repro serve --smoke

# Both adapters of the one policy plane must keep their managers on it: every
# session of the default serving policy (USTA over the deployed REPTree
# predictor) and of an MLP-predictor policy, and every managed cell of a
# sweep.  A silent fallback to the scalar loop fails the dry runs.
plane-residency:
	$(PYTHON) -m repro serve --explain-plane --sessions 20 --scale 0.05 | grep "20 of 20 session(s) resident"
	$(PYTHON) -m repro serve --explain-plane --sessions 20 --scale 0.05 --model multilayer_perceptron | grep "20 of 20 session(s) resident"
	$(PYTHON) -m repro sweep --explain-batching --scale 0.02 --model linear_regression | grep "policy plane: 10 of 10"

# Exercises the crash-safe streaming path end to end: a tiny sweep streamed
# to sharded JSONL, then the same sweep again with --resume (which must skip
# every persisted cell and rebuild the table from the shards).  The same
# sweep through a 2-worker fleet must write the same index.jsonl byte for
# byte — offsets, lengths and sha256 stamps: a store depends only on its
# plan, not on the executor that wrote it.  So must the same sweep windowed
# every 7 steps, whose records go through the per-member window spool
# (encode, decode, replay) before the store.  Then the same resume over a
# copy of tests/data/store_v2, the committed store written in the earlier
# per-record line format: every legacy cell must still load.
stream-smoke:
	rm -rf .stream-smoke .stream-smoke-fleet .stream-smoke-win .stream-smoke-v2
	$(PYTHON) -m repro sweep --scale 0.02 --model linear_regression --stream-to .stream-smoke
	$(PYTHON) -m repro sweep --scale 0.02 --model linear_regression --stream-to .stream-smoke --resume
	$(PYTHON) -m repro sweep --scale 0.02 --model linear_regression --stream-to .stream-smoke-fleet --fleet 2
	cmp .stream-smoke/index.jsonl .stream-smoke-fleet/index.jsonl
	$(PYTHON) -m repro sweep --scale 0.02 --model linear_regression --stream-to .stream-smoke-win --window-steps 7
	cmp .stream-smoke/index.jsonl .stream-smoke-win/index.jsonl
	cp -r tests/data/store_v2 .stream-smoke-v2
	$(PYTHON) -m repro sweep --scale 0.02 --model linear_regression --stream-to .stream-smoke-v2 --resume | grep "0 cell(s) executed, 10 resumed from disk"
	rm -rf .stream-smoke .stream-smoke-fleet .stream-smoke-win .stream-smoke-v2

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

# src/ size: total lines and code lines (blank, comment and docstring lines
# left out), the figures CHANGES.md and ROADMAP.md track.  Not part of check.
loc:
	$(PYTHON) tools/loc.py src

bench-baseline:
	$(PYTHON) benchmarks/bench_batch_runtime.py
