# Convenience targets mirroring CI. The workspace has zero external
# dependencies, so everything runs offline.

CARGO ?= cargo

.PHONY: all build test check fmt clippy ci docs telemetry faults scenarios farm guards topologies bench ab figures clean

all: build

build:
	$(CARGO) build --workspace --all-targets --offline

test:
	$(CARGO) test --workspace --offline
	$(CARGO) test --release --offline -p adaptnoc-sim --test oracle_equivalence
	$(CARGO) test --release --offline -p adaptnoc-core --test reconfig_prop
	$(CARGO) test --release --offline -p adaptnoc-sim --lib -- wiring_ limit_ ring_

fmt:
	$(CARGO) fmt --all -- --check

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

check: fmt clippy

# Everything CI runs, in CI's order.
ci: check build test docs telemetry guards faults scenarios farm topologies bench

# Rustdoc must build warning-clean (missing_docs is deny-level on the
# public crates), and the code blocks of docs/OBSERVABILITY.md,
# docs/SCENARIOS.md, docs/FARM.md and docs/TOPOLOGIES.md run as
# doctests through the root crate's doc-include modules.
docs:
	RUSTDOCFLAGS='-D warnings' $(CARGO) doc --no-deps --workspace --offline
	$(CARGO) test --doc -p adaptnoc --offline

# Telemetry subsystem: crate + wiring tests, the observation-only
# property suite, and the determinism check on the snapshot tour.
telemetry:
	$(CARGO) test -p adaptnoc-telemetry --offline
	$(CARGO) test -p adaptnoc-sim --test telemetry_equivalence --offline
	$(CARGO) run --release --offline --example telemetry_tour > /tmp/telemetry_tour_a.txt
	$(CARGO) run --release --offline --example telemetry_tour > /tmp/telemetry_tour_b.txt
	cmp /tmp/telemetry_tour_a.txt /tmp/telemetry_tour_b.txt

# Fault-injection subsystem: crate tests, the sweep campaign, and the
# determinism check on the end-to-end example.
faults:
	$(CARGO) test -p adaptnoc-faults --offline
	$(CARGO) run --release --offline --example fault_recovery > /tmp/fault_recovery_a.txt
	$(CARGO) run --release --offline --example fault_recovery > /tmp/fault_recovery_b.txt
	cmp /tmp/fault_recovery_a.txt /tmp/fault_recovery_b.txt
	$(CARGO) run --release --offline -p adaptnoc-bench --bin gen-figures -- --quick --only faults

# Scenario subsystem: DSL/runner/corpus tests, the open-loop engine,
# campaign equivalence, the determinism check on the tour example, and
# the latency-throughput campaign itself.
scenarios:
	$(CARGO) test -p adaptnoc-scenario --offline
	$(CARGO) test -p adaptnoc-workloads --offline
	$(CARGO) test -p adaptnoc-bench --test scenario_equivalence --offline
	$(CARGO) run --release --offline --example scenario_tour > /tmp/scenario_tour_a.txt
	$(CARGO) run --release --offline --example scenario_tour > /tmp/scenario_tour_b.txt
	cmp /tmp/scenario_tour_a.txt /tmp/scenario_tour_b.txt
	$(CARGO) run --release --offline -p adaptnoc-bench --bin gen-figures -- --only scenarios --threads 0

# Topology atlas + scaling: the generated-topology property suites
# (sparse Hamming / chiplet fabrics: connected, deadlock-free, within
# the wiring budget), the chip-scale routing-table pins, their size bound
# and the simulator's own memory bound (`Network::heap_bytes()`; release
# only: ignored in debug builds), docs/TOPOLOGIES.md's
# doctests, the deterministic atlas example, and the 64x64 scaling
# campaign pinned byte-identical whether its points run serially or fan
# out over 4 threads (mirrors CI scaling-smoke).
topologies:
	$(CARGO) test -p adaptnoc-topology --offline
	$(CARGO) test --release --offline -p adaptnoc-topology --test table_identity
	$(CARGO) test --doc -p adaptnoc --offline topologies
	$(CARGO) run --release --offline --example topology_atlas > /tmp/topology_atlas_a.txt
	$(CARGO) run --release --offline --example topology_atlas > /tmp/topology_atlas_b.txt
	cmp /tmp/topology_atlas_a.txt /tmp/topology_atlas_b.txt
	rm -f results/figures.json
	$(CARGO) run --release --offline -p adaptnoc-bench --bin gen-figures -- --quick --only scaling --threads 1
	cp results/figures.json /tmp/scaling-serial.json
	rm results/figures.json
	$(CARGO) run --release --offline -p adaptnoc-bench --bin gen-figures -- --quick --only scaling --threads 4
	cmp /tmp/scaling-serial.json results/figures.json

# Farm daemon: crate + supervision tests, the crash/resume integration
# suite (SIGKILL mid-job, SIGTERM under load, farmctl lifecycle), and
# the end-to-end smoke script — boot farmd, submit the corpus, cancel
# one job mid-flight, drain, and diff the daemon-run scenarios campaign
# against the direct one.
farm:
	$(CARGO) test -p adaptnoc-farm --offline
	bash scripts/farm_smoke.sh

# Re-run the whole suite with every-cycle invariant checking (credit and
# flit conservation, fault/power isolation); any breach panics on the
# cycle it happens. Mirrors CI's guards-strict job.
guards:
	ADAPTNOC_GUARDS=strict $(CARGO) test --workspace --offline
	$(CARGO) run --release --offline --example health_guards > /tmp/health_guards_a.txt
	$(CARGO) run --release --offline --example health_guards > /tmp/health_guards_b.txt
	cmp /tmp/health_guards_a.txt /tmp/health_guards_b.txt

# The benchmark package (BENCHMARK.json, benchmark/): standalone, so the
# workspace targets above never compile it and a renamed crate API would
# otherwise surface only when the benchmark is next measured. Builds it
# against the workspace crates, runs its own tests, and smoke-runs the
# two workloads with the most API surface. Exit codes only — timing is
# the benchmark driver's business (see benchmark/README.md).
BENCH := $(CARGO) run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- run

bench:
	$(CARGO) build --release --offline --manifest-path benchmark/Cargo.toml
	$(CARGO) test --release --offline --manifest-path benchmark/Cargo.toml
	$(BENCH) --list
	$(BENCH) --workload scale_64 --seconds 2 --trace 1
	$(BENCH) --workload farm_jobs --seconds 2 --trace 0

# A/B comparison of two benchmark binaries by the benchmark/README.md
# protocol (order-alternated pairs; per end-to-end metric the parent's
# median [q1, q3], the change's median, wins, digest equality and
# "claim"/"unresolved"). Build both binaries first, e.g.
#   make ab PARENT=/tmp/a/adaptnoc-benchmark CHANGE=/tmp/b/adaptnoc-benchmark
WORKLOAD ?= scn_storm
SEED ?= 1
PAIRS ?= 10

ab:
	bash scripts/ab.sh $(PARENT) $(CHANGE) $(WORKLOAD) $(SEED) $(PAIRS)

figures:
	$(CARGO) run --release --offline -p adaptnoc-bench --bin gen-figures -- --threads 0

clean:
	$(CARGO) clean
