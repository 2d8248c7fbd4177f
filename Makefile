# Developer entry points. `make check` is the pre-merge gate: vet, the full
# test suite, and the race detector over the concurrency-heavy packages
# (replication and transport are where the primary/backup/heartbeat
# goroutines interleave; the facade, debugger, fuzzer, consensus log, fleet
# and view service start goroutines too, and run their -short suites raced).

GO ?= go

.PHONY: build test vet race check bench bench-smoke fuzz-smoke clock-lint sim-smoke view-smoke fleet-smoke consensus-smoke debug-smoke replay-seeds golden-dual

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./internal/replication/... ./internal/transport/... ./internal/simtest/...
	$(GO) test -race -short . ./internal/debug/... ./internal/fuzzgen/... ./internal/consensus/... ./internal/fleet/... ./internal/viewsvc/...

# Clock-injection rule (DESIGN.md): no naked time.Now/time.Sleep/... in
# library code — time comes from an injected clock.Clock, or clock.Real.*
# as an explicit wall-time opt-in.
clock-lint:
	./scripts/clocklint.sh

# Deterministic simulation smoke: a seeded sweep of kill points × channel
# faults across modes and network schedules, fully virtual-time, well under
# 30s of wall clock. Any failure prints a single -replay string.
sim-smoke:
	$(GO) run ./cmd/ftvm-sim -progs 4 -nets 2

# Three-node view-change smoke: the first primary dies, the promoted backup
# recruits the idle node via snapshot + live-tail state transfer, and
# schedules also kill the promoted primary (the n-1 sequential-failure
# space), plus stale-epoch stragglers probing the split-brain gate.
view-smoke:
	$(GO) run ./cmd/ftvm-sim -view -progs 2 -nets 1

# Sharded-fleet smoke: the multi-tenant serving fleet under its seeded
# open-loop load generator — kills mid-window, replication-hop faults, double
# kills, stale-epoch probes — with every request model-checked for
# at-most-once execution. A 100k-client run with a mid-window kill rides
# along to exercise the scale path. Fully virtual-time.
fleet-smoke:
	$(GO) run ./cmd/ftvm-sim -fleet -progs 2
	$(GO) run ./cmd/ftvm-fleet -clients 100000 -nodes 5 -shards 16 -kills n2@800ms

# Consensus-backend smoke: the VM over the 3-replica replicated log —
# leader kills mid-commit, follower kills, partition windows, stale-term
# injections, contested elections — plus the 4-column differential smoke
# (standalone / pair / pair-failover / consensus must be bit-identical;
# part of the fuzzgen short suite, pinned here so the backend cannot be
# silently dropped from the gate). Fully virtual-time.
consensus-smoke:
	$(GO) run ./cmd/ftvm-sim -consensus -progs 2 -nets 1
	$(GO) test -short -run TestDifferentialSmoke ./internal/fuzzgen

# Time-travel debugger smoke: capture a log from a deterministic replay,
# drive the ftvm-debug REPL with a fixed script (twice, at two checkpoint
# densities, and under both interpreter engines) requiring byte-identical
# transcripts, then -diff a pair of diverging captures and a log against
# itself. See scripts/debugsmoke.sh.
debug-smoke:
	./scripts/debugsmoke.sh

# Replay the regression tables of historical failure classes under the
# deterministic harness: the pair table (PR 1-3 bugs), the view-change
# table (epoch/promotion bugs), the fleet table (at-most-once /
# state-transfer bugs), and the consensus table (leader-kill-mid-commit /
# stale-term / split-vote classes). See internal/simtest/replayseeds_test.go,
# viewsweep_test.go, fleetsweep_test.go, and consensusreplayseeds_test.go.
replay-seeds:
	$(GO) test -run 'TestReplaySeeds|TestViewReplaySeeds|TestFleetReplaySeeds|TestConsensusReplaySeeds' -v ./internal/simtest

# Bounded fuzzing pass: the differential smoke quota (a few hundred generated
# programs cross-checked standalone/replicated/failover) plus a short burst of
# each native fuzz target. `go test -fuzz` accepts one target per invocation.
fuzz-smoke:
	$(GO) test -short ./internal/fuzzgen
	$(GO) test -run '^$$' -fuzz FuzzProgramBinary -fuzztime 10s ./internal/bytecode
	$(GO) test -run '^$$' -fuzz FuzzAsmRoundTrip -fuzztime 10s ./internal/bytecode

check: vet clock-lint build test race bench-smoke fuzz-smoke sim-smoke view-smoke fleet-smoke consensus-smoke debug-smoke golden-dual

# The dual-mode golden gate: the full golden program suite and the
# replication event log, bit-identical between the switch and threaded
# interpreter engines.
golden-dual:
	$(GO) test -count=1 -run 'TestDispatchDualMode' . ./internal/replication

bench:
	$(GO) run ./cmd/ftvm-bench -all

# One iteration of every Go benchmark: catches benchmarks that no longer
# compile or crash without paying for a real measurement run.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
