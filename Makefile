GO ?= go

.PHONY: all build test tier1 experiments-check race chaos chaos-recovery chaos-wire chaos-replicate chaos-federate bench bench-smoke bench-1m-smoke alloc-regression fuzz-smoke vet staticcheck fmt loc

all: build tier1

build:
	$(GO) build ./...

# tier1 is the CI gate: vet, staticcheck (when installed), the
# zero-allocation regressions and the race-enabled short suite (the heavy
# chaos scenario is skipped under -short so this stays fast).
tier1: vet staticcheck alloc-regression
	$(GO) test -race -short ./...

# alloc-regression pins the decide path and the small-frame read loop at
# zero allocations per operation, and R*-tree changes and churn snapshots at
# O(path) allocations, via testing.AllocsPerRun, bounds the server's wire
# path at two allocations per published event (TestServerAllocsPerPublish),
# a dedup-window snapshot at one allocation (TestWindowSnapshotAllocs), a
# durable broker's allocations per event as flat in the event's copies
# (TestDurableAllocsFlatInCopies), pins the transport's fan-out hold at
# zero allocations per held dispatch and release (TestFanoutHoldZeroAllocs),
# and bounds the federation router's dedup state in bytes. It must run
# without the race detector (shadow allocations would inflate the counts),
# which is why it is a separate tier1 prerequisite rather than part of the
# race suite.
alloc-regression:
	$(GO) test -count=1 -run 'TestDecidePathZeroAllocs|TestReadFrameZeroCopySmall|TestSnapshotChurnAllocs|TestInsertDeleteAllocs|TestRouterDedupFootprint|TestServerAllocsPerPublish|TestWindowSnapshotAllocs|TestDurableAllocsFlatInCopies|TestFanoutHoldZeroAllocs' ./internal/broker/ ./internal/wire/ ./internal/core/ ./internal/rtree/ ./internal/federate/ ./internal/transport/

# experiments-check reruns the quick experiment sweep and compares its
# deterministic CSVs byte for byte with the copies recorded in
# results/quick/: every table and figure, routed and priced through the
# broker's own decider, so a change to a decision shows up here. The
# timing-dependent outputs (fig10, faults) are not compared. Takes about
# 15 s.
QUICK_CSVS = table1 table2 fig7 fig8 fig9_net1 fig9_net2 scenarios ablation
experiments-check:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/pubsub-bench -quick -csv "$$tmp" all > "$$tmp/run.txt" || { cat "$$tmp/run.txt"; exit 1; }; \
	for f in $(QUICK_CSVS); do cmp "results/quick/$$f.csv" "$$tmp/$$f.csv" || exit 1; done; \
	echo "experiments-check: $(words $(QUICK_CSVS)) quick CSVs match results/quick/"

# fuzz-smoke runs every fuzz target for 5 s. go test fuzzes one target
# per invocation, hence one call per target.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzTreeOps$$' -fuzztime 5s ./internal/rtree/
	$(GO) test -run '^$$' -fuzz '^FuzzClampRect$$' -fuzztime 5s ./internal/rtree/
	$(GO) test -run '^$$' -fuzz '^FuzzGridLocate$$' -fuzztime 5s ./internal/space/
	$(GO) test -run '^$$' -fuzz '^FuzzIntervalAlgebra$$' -fuzztime 5s ./internal/space/
	$(GO) test -run '^$$' -fuzz '^FuzzPredicateNormalize$$' -fuzztime 5s ./internal/space/
	$(GO) test -run '^$$' -fuzz '^FuzzWindowMatchesResidue$$' -fuzztime 5s ./internal/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeDeliverBatch$$' -fuzztime 5s ./internal/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 5s ./internal/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeClientFrame$$' -fuzztime 5s ./internal/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeReplFrame$$' -fuzztime 5s ./internal/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime 5s ./internal/durable/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCheckpoint$$' -fuzztime 5s ./internal/durable/

# staticcheck runs honnef.co/go/tools when the binary is on PATH and is a
# no-op otherwise, so tier1 never depends on tooling the container lacks.
# CI installs a pinned version, making the check mandatory there.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# chaos runs the full fault-injection and self-healing suite twice under
# the race detector, including the heavy recovery scenarios skipped by
# tier1's -short.
chaos:
	$(GO) test -race -count=2 ./internal/broker/ ./internal/faults/ ./internal/health/ ./internal/durable/

# chaos-recovery is the crash–restart subset: every durability and
# crash-matrix scenario, twice, under the race detector. CI runs it as
# its own job so a dedup/journal race is named by the job that fails.
chaos-recovery:
	$(GO) test -race -count=2 -run 'Durable|CrashRestart' ./internal/...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# chaos-wire runs the transport suite — loopback e2e, credit exhaustion,
# graceful drain, protocol edges, and the conn-fault chaos scenario with
# forced reconnects — twice under the race detector.
chaos-wire:
	$(GO) test -race -count=2 ./internal/transport/ ./internal/wire/ ./internal/faults/

# chaos-replicate runs the replicated-pair suite — journal shipping,
# catch-up, fencing, and the failover chaos matrix (crashes mid-ship,
# mid-catch-up, mid-failover) proving exactly-once across the handover —
# twice under the race detector.
chaos-replicate:
	$(GO) test -race -count=2 ./internal/replicate/

# chaos-federate runs the federation suite — partition derivation, the
# cross-shard exactly-once router tests (boundary straddlers, fenced-leader
# rerouting, remote shards over the wire) and the chaos matrix where a
# replicated shard pair fails over mid-storm under concurrent churn —
# twice under the race detector.
chaos-federate:
	$(GO) test -race -count=2 ./internal/federate/

# bench-1m-smoke is the CI-scale run: -short drops the world to 65,536
# subscribers, proving the million-subscriber path builds and decides
# without paying the full setup.
bench-1m-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkPublishDecide1M' -short -benchmem -benchtime=200x -timeout 10m ./internal/broker/

# bench-smoke compiles and runs every benchmark in the repo exactly once —
# a cheap CI guard that benchmarks keep building and don't panic. -short
# keeps scale-aware benchmarks (the 1M decide world) at their reduced size.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x -short ./...

vet:
	$(GO) vet ./...

# loc prints the Go line counts outside bench/ that CHANGES.md entries
# and ROADMAP re-anchors quote: non-test files, then _test.go files.
loc:
	@printf 'non-test: '; find . -name '*.go' -not -path './bench/*' -not -name '*_test.go' | xargs cat | wc -l
	@printf 'test:     '; find . -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l

fmt:
	gofmt -l -w .
