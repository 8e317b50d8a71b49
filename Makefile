# Development targets for the LAMS-DLC reproduction.

PYTHON ?= python3

.PHONY: install test test-deep golden golden-bless mutants bench bench-check bench-pairs report examples sweep-smoke validation-smoke faults-smoke soak-smoke constellation-smoke transport-smoke transport-soak-smoke channels-smoke clean

install:
	$(PYTHON) setup.py develop

# The tier-1 suite, as ROADMAP.md's tier-1 verify command runs it
# (~100 s: 97 s and 105 s measured for 1517 tests on a 2-CPU host).
test:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest -x -q

# Tier-1 with the random search back on: the `deep` hypothesis profile
# (tests/conftest.py) draws fresh examples each run, where tier-1's
# `tier1` profile replays the same derandomized ones.
test-deep:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ --hypothesis-profile=deep

# The "same answers" set under tests/golden/: the benchmark's seed-7
# `counts` of the four discrete-event workloads at a short window
# (des_counts.json, tests/test_golden_counts.py, also in tier-1) and the
# digests of E21's rows and of the `soak --seed 7 --episodes 145`
# verdicts (verdicts.json, tools/golden.py; ~5 s on a 2-CPU host).
# `make golden` fails if any moved; `make golden-bless` rewrites both
# files and prints each key that moved.  A change that moves one by
# design runs golden-bless and names the key.
golden:
	PYTHONPATH=src:. $(PYTHON) -m pytest -q -p no:cacheprovider tests/test_golden_counts.py
	PYTHONPATH=src $(PYTHON) tools/golden.py

golden-bless:
	PYTHONPATH=src:. $(PYTHON) -m tests.test_golden_counts
	PYTHONPATH=src $(PYTHON) tools/golden.py --bless

# Re-check the hand mutants (tools/mutants.py): each
# tests/mutants/<name>.patch is applied to a scratch export of the index
# (what `git add -A` staged) and the test it names must fail there.
# Fails if any mutant survives or no longer applies.  29 patches, ~200 s
# wall on a 2-vCPU host; CI runs it after tier-1.
mutants:
	$(PYTHON) tools/mutants.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# The repo benchmark's own smoke test (~30 s): one `python -m bench
# --quick` run checked against the metric names in BENCHMARK.json, so
# the benchmark the pipeline gates on cannot rot unseen.
bench-check:
	PYTHONPATH=src $(PYTHON) -m pytest bench/ -q

# The acceptance procedure for a performance claim, as one command:
# `make bench-pairs PARENT=<rev> WORKLOAD=sat_clean SEED=23 PAIRS=10`
# exports <rev> and the index (what `git add -A` staged) into a temp
# dir, runs `python3 -m bench --workload W --seed S --seconds 5
# --trace 0` on each, one run at a time in alternating order, prints
# every run, medians, quartiles, wins and ops_failed, and fails if the
# two exact `counts` lines differ — except in the keys a change that
# removes work names, e.g. COUNTS_MAY_DIFFER=events,peak_heap (printed
# parent → change; every other key must still match).  CLAIM=<metric>
# adds the claim-rule verdicts: `holds` only if the change is ahead in
# >= 9/10 pairs and by more than the parent's IQR (else exit 1), and
# within bound / worse (exit 1) / unresolved for every other metric.
# CHANGE=<rev> measures that revision in place of the index (exported
# the way the parent is), so CHANGE=$(PARENT) is an A/A run.  Never
# measure from the working tree.
PARENT ?= HEAD
CHANGE ?=
WORKLOAD ?= sat_clean
SEED ?= 23
PAIRS ?= 10
COUNTS_MAY_DIFFER ?=
CLAIM ?=
bench-pairs:
	$(PYTHON) tools/bench_pairs.py --parent $(PARENT) $(if $(CHANGE),--change $(CHANGE)) \
		--workload $(WORKLOAD) --seed $(SEED) --pairs $(PAIRS) --counts-may-differ "$(COUNTS_MAY_DIFFER)" \
		--claim "$(CLAIM)"

report:
	$(PYTHON) -m repro report --output evaluation_report.txt

# A two-job parallel mini-sweep, run twice on a fresh cache directory:
# exercises the multiprocessing pool, the on-disk result cache, and the
# unified endpoint-pair API end to end, for every protocol family and
# mode.  The first pass must execute all ten points and the second must
# answer all ten from the cache.
sweep-smoke:
	set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	for pass in cold warm; do \
		PYTHONPATH=src $(PYTHON) -m repro sweep --preset short_hop \
			--protocols lams hdlc gbn nbdt-continuous nbdt-multiphase \
			--seeds 2 --duration 0.05 \
			--metrics efficiency --jobs 2 --cache-dir "$$dir/cache" \
			| tee "$$dir/$$pass.txt"; \
	done; \
	grep -q '^sweep: 10 executed, 0 cached' "$$dir/cold.txt"; \
	grep -q '^sweep: 0 executed, 10 cached' "$$dir/warm.txt"

# The Section-4 validation table (E26): every closed form beside a
# ten-seed mean and its 95% CI, computed at two jobs (~6-8 s on a 2-CPU
# host).  Fails unless every row is within its (closed form, protocol)
# tolerance or a known divergence (docs/ANALYSIS.md §8), or a
# cross-cell claim of the table breaks.  The same file `make bench` runs.
validation-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_e26_validation.py \
		--benchmark-only -s

# The fault-injection matrix (E21) through the sweep runner: outage
# detection and declared-failure latency checked against the paper's
# C_depth*W_cp bounds, with zero frame loss in every cell.  Uncached,
# so the table is always the one the checked-out code computes.
faults-smoke:
	PYTHONPATH=src $(PYTHON) -m repro sweep --experiments E21 \
		--jobs 2 --no-cache

# A short randomized chaos soak under the runtime invariant monitors
# (docs/INVARIANTS.md): every episode draws a fresh scenario, fault
# plan, and workload from the fixed master seed; any invariant
# violation fails the target with a reproducer command.  The second
# soak (145 episodes of master seed 7, ~3 s at two jobs) is the verdict
# a change to the monitored path quotes.
soak-smoke:
	PYTHONPATH=src $(PYTHON) -m repro soak --episodes 12 --seed 20260806 \
		--jobs 2 --fail-fast
	PYTHONPATH=src $(PYTHON) -m repro soak --seed 7 --episodes 145 --jobs 2

# Constellation-layer smoke (docs/TOPOLOGY.md): a tiny 4-node ring
# through the `constellation` CLI, then the E24 experiment with its
# determinism-certifying scale cell shrunk to a dozen links.  That cell
# also carries the idle-link budget as exact counts (they repeat to the
# event, so no timing is involved): 2.515 events a frame and 12.83 heap
# entries a link, the 24 receivers' checkpoints being one round of
# Simulator.every with one heap entry; a checkpoint timer per receiver
# coming back reads 3.385 and 14.75, a heap entry per timer restart
# 3.899 and 18.7 (docs/TUNING.md "What an idle link costs").
# The build side of the budget is a count too: a routing table is made
# by the node that first forwards, so the cell E24 itself built (caught
# on its way out of build_constellation) may hold no more tables than
# it has forwarding nodes — 12 and 12 here, where every node is a
# source; 4 for chain-4's five nodes, whose sink only terminates; 16 of
# 1000 on the benchmark's ring (docs/TUNING.md "What a link costs to
# build and to hold").
constellation-smoke:
	PYTHONPATH=src $(PYTHON) -m repro constellation --topology ring \
		--size 4 --messages 10 --duration 0.5
	PYTHONPATH=src $(PYTHON) -c "\
	import repro.topology as topology; \
	from repro.experiments import run_experiment; \
	cells, build = [], topology.build_constellation; \
	topology.build_constellation = lambda *a, **k: cells.append(build(*a, **k)) or cells[-1]; \
	result = run_experiment('E24', scale_links=12, duration=0.5); \
	assert all(row['delivery_ratio'] == 1.0 for row in result.rows), result.rows; \
	assert all(row['deterministic'] in (None, True) for row in result.rows), result.rows; \
	scale = result.rows[-1]; \
	assert scale['cell'] == 'ring-12', scale; \
	assert scale['events'] <= 0.9 * scale['frames_sent'], scale; \
	assert scale['peak_heap'] <= 7 * scale['links'], scale; \
	rounds = sorted(len(armed.calls) // 2 for armed in cells[-1].sim._rounds.values()); \
	assert rounds[-1] == 2 * scale['links'], rounds; \
	routing = [(sum(layer.tables_built for layer in cell.layers.values()), \
		sum(1 for layer in cell.layers.values() if layer.forwarded), len(cell.layers)) \
		for cell in cells]; \
	assert all(0 < tables <= forwarders for tables, forwarders, _ in routing), routing; \
	tables, forwarders, nodes = routing[-1]; \
	assert nodes == 12 and routing[1] == (4, 4, 5), routing; \
	print('E24 ok:', ', '.join(row['cell'] for row in result.rows), \
		'| ring-12 events/frame %.3f, peak_heap/link %.2f, members per round %s,' \
		% (scale['events'] / scale['frames_sent'], scale['peak_heap'] / scale['links'], \
		'+'.join(map(str, rounds))), \
		'%d route tables for %d forwarding nodes' % (tables, forwarders))"

# Transport-backend smoke (docs/TRANSPORT.md): a loopback LAMS-DLC
# transfer over real asyncio-UDP sockets with the invariant monitors
# armed (clean + lossy golden scenarios), then the DES-vs-UDP
# conformance harness asserting byte-identical delivery and identical
# monitor verdicts on both backends, then the two-process mode: a
# `serve` in the background, a `transmit --connect` to it that must
# exit 0, and the server stopped by SIGINT, which must exit 130 having
# received all 24 payloads.
SERVE_PORT ?= 47901

transport-smoke:
	PYTHONPATH=src $(PYTHON) -m repro transmit --golden clean --frames 24 \
		--timeout 20
	PYTHONPATH=src $(PYTHON) -m repro transmit --golden lossy --frames 24 \
		--timeout 20
	PYTHONPATH=src $(PYTHON) -m repro transmit --conform --frames 32 \
		--timeout 20
	log=$$(mktemp); \
	PYTHONPATH=src $(PYTHON) -m repro serve --golden clean \
		--bind 127.0.0.1:$(SERVE_PORT) > $$log 2>&1 & server=$$!; \
	sleep 1; \
	PYTHONPATH=src $(PYTHON) -m repro transmit --golden clean \
		--connect 127.0.0.1:$(SERVE_PORT) --frames 24 --timeout 20; \
	client=$$?; \
	kill -INT $$server; wait $$server; status=$$?; \
	cat $$log; grep -q "^serve: 24 unique payload(s) " $$log; found=$$?; \
	rm -f $$log; \
	echo "transmit exit $$client, serve exit $$status"; \
	test $$client -eq 0 && test $$status -eq 130 && test $$found -eq 0

# Live chaos-soak on the UDP backend (docs/TRANSPORT.md "Resilience"):
# seeded episodes run as supervised real-time loopback sessions with
# transport-level fault injection (endpoint stalls, peer restarts,
# handshake blackholes, send-error bursts); the supervisor must ride
# every fault out via reconnect + backlog replay with zero invariant
# violations, and fault-free episodes are cross-checked against the
# DES reference digest.
transport-soak-smoke:
	PYTHONPATH=src $(PYTHON) -m repro soak --backend udp --episodes 3 \
		--seed 7 --fail-fast

# Time-varying channel smoke (docs/CHANNELS.md): synthesize a
# Gilbert–Elliott error trace, replay it, and verify the
# delivered-payload digest reproduces bit-identically; then a
# two-point E25 cell asserting throughput degrades when only the
# feedback (checkpoint/NAK) direction loses frames.
channels-smoke:
	PYTHONPATH=src $(PYTHON) -m repro trace-synth --preset noisy \
		--model gilbert-elliott \
		--params '{"good_ber": 1e-7, "bad_ber": 1e-4, "mean_good": 0.02, "mean_bad": 0.004}' \
		--frames 150 --seed 3 --output .channels-smoke-trace.jsonl --verify
	PYTHONPATH=src $(PYTHON) -c "\
	from repro.experiments import run_experiment; \
	result = run_experiment('E25', duration=0.5, \
		feedback_bers=(0.0, 5e-3), depths=(2,)); \
	clean, lossy = result.rows; \
	assert lossy['efficiency'] < clean['efficiency'], result.rows; \
	print('E25 ok: efficiency %.3f -> %.3f under feedback loss' \
		% (clean['efficiency'], lossy['efficiency']))"

examples:
	for script in examples/*.py; do \
		echo "=== $$script ==="; \
		PYTHONPATH=src $(PYTHON) $$script || exit 1; \
	done

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache .sweep-cache
	rm -f .channels-smoke-trace.jsonl
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
