# Tier-1 verification gate (see README.md): vet (go vet plus a gofmt -l that
# must print nothing), build, the full suite under the race detector, and the
# determinism suite twice — the second -count exercises fresh goroutine
# schedules so an order-dependent reduction cannot pass by luck.
GO ?= go

.PHONY: verify vet build test race determinism fleet cover-serve cover-collective cover-hier bench bench-flitsim bench-warm bench-floorplan bench-all fuzz

verify: vet build race determinism

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "FAIL: gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

determinism:
	$(GO) test -run TestDeterminism -count=2 ./...

# fleet is the design-fleet gate: the multi-replica e2e suite (consistent-
# hash sharding, forwarding, owner-down fallback, loop protection), the
# disk-store crash-safety suite, the batch/lane/v1-surface tests, and
# client-disconnect cancellation for flat and hier requests, all under the
# race detector.
fleet:
	$(GO) test -race -count=1 -run 'TestFleet|TestPeerRing|TestDiskStore|TestBatch|TestBulk|TestV1|TestErrorEnvelope|TestLane|TestMemStore|TestClientDisconnect' ./internal/serve/

# cover-<pkg> is the coverage gate of internal/<pkg>: the package's own suite
# must keep its line coverage at or above the floor, and the per-function
# breakdown lands in the untracked COVER_<pkg>.txt for the CI artifact. serve
# (80%) is held by the design server's e2e suite, collective (85%) by the
# golden, property, error and determinism suites, hier (85%) by the
# spec/partition/split suites, the golden designs, the flatten/replay tests
# and the determinism pins.
COVER_FLOOR_serve = 80
COVER_FLOOR_collective = 85
COVER_FLOOR_hier = 85

cover-serve cover-collective cover-hier: cover-%:
	$(GO) test -count=1 -coverprofile=cover_$*.out ./internal/$*/
	$(GO) tool cover -func=cover_$*.out | tee COVER_$*.txt
	@total=$$(awk '/^total:/ {sub(/%/, "", $$3); print $$3}' COVER_$*.txt); \
	echo "internal/$* line coverage: $$total% (floor $(COVER_FLOOR_$*)%)"; \
	awk "BEGIN {exit !($$total >= $(COVER_FLOOR_$*))}" || { echo "FAIL: coverage $$total% below the $(COVER_FLOOR_$*)% floor"; exit 1; }

# bench-<gate> is a same-machine speedup gate: it runs exactly the benchmarks
# named in BENCH_RATIO_<gate> (a space-separated list of NUM:DEN) and fails
# unless every numerator takes at least BENCH_MIN_<gate> times the ns/op of
# its denominator. Both sides run in the same invocation on the same machine,
# so the ratio needs no recorded baseline, and no target writes a file.
#   flitsim:   the event-driven engine vs the cycle-stepping reference (the
#              test oracle in engine_ref_test.go) in three pairs: the
#              compute-gap-heavy CG on the mesh, where idle cycles are skipped;
#              full-size BT on the crossbar, where steady wormhole streaming
#              is leapt; and full-size CG on the mesh, where worms taking
#              turns on shared links make periodic states that are leapt
#              whole periods at a time (the pair also bounds the period
#              test's bookkeeping).
#   warm:      the same five CG-16 variants synthesized cold vs seeded from a
#              prior design. The floor is 3, down from 5: the ratio measures
#              what seeding saves, and the what-if evaluator halved the cold
#              side (8x became about 4x) while the seeded side, which skips
#              globalRefine and so prices almost no candidates, stood still.
#              Raise it by making seeded synthesis faster, never by slowing
#              cold synthesis.
#   floorplan: the array-backed delta search vs the map-based reference (the
#              test oracle in placeref_test.go) on CG-16.
BENCH_PKG_flitsim = ./internal/flitsim
BENCH_RATIO_flitsim = BenchmarkSimulateCG16GapMeshReference:BenchmarkSimulateCG16GapMesh \
	BenchmarkSimulateBT16StreamCrossbarReference:BenchmarkSimulateBT16StreamCrossbar \
	BenchmarkSimulateCG16MeshReference:BenchmarkSimulateCG16Mesh
BENCH_MIN_flitsim = 10

BENCH_PKG_warm = ./internal/synth
BENCH_RATIO_warm = BenchmarkWarmStartSweepCold:BenchmarkWarmStartSweepSeeded
BENCH_MIN_warm = 3

BENCH_PKG_floorplan = ./internal/floorplan
BENCH_RATIO_floorplan = BenchmarkPlaceCG16Reference:BenchmarkPlaceCG16
BENCH_MIN_floorplan = 10

# bench_re anchors the -bench regex to exactly the names in the gate's pairs.
empty :=
space := $(empty) $(empty)
bench_re = ^($(subst $(space),|,$(strip $(subst :, ,$(BENCH_RATIO_$*)))))$$

bench-flitsim bench-warm bench-floorplan: bench-%:
	$(GO) test -run '^$$' -bench '$(bench_re)' -benchmem $(BENCH_PKG_$*) \
		| $(GO) run ./cmd/benchratio $(foreach r,$(BENCH_RATIO_$*),-ratio '$(r)') -min-ratio $(BENCH_MIN_$*)

bench: bench-flitsim bench-warm bench-floorplan

# bench-all is the one performance entry point: `bench`'s three ratio gates in
# sequence, then the end-to-end ledger — BENCHMARK.json's four workloads, each
# with its per-layer breakdown. The ledger builds and drives its own nocd and
# writes only under bench/out/; about 35 s per workload. Run it on an
# otherwise idle box, without -j.
LEDGER_WORKLOADS = cold_synth warm_variants hit_replay paper_cells

bench-all: bench
	@for w in $(LEDGER_WORKLOADS); do \
		echo "== $(GO) run ./bench -workload $$w -seed 1 -trace 1"; \
		$(GO) run ./bench -workload $$w -seed 1 -trace 1 || exit 1; \
	done

# FuzzLoadDesign and FuzzHierLoadDesign cap minimization: their seeds are saved
# designs of 8 to 14 KB, and the default 60 s minimizer would otherwise eat the
# whole 30 s budget. FuzzDiskStoreLoad caps it too: every file it accepts is
# re-Put (an fsync'd write) and reloaded once per byte it serves, so minimizing
# an accepted input stalls the run for up to a minute at a time.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParseTrace -fuzztime 30s ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzFingerprint -fuzztime 30s ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzCollectiveConfig -fuzztime 30s ./internal/collective
	$(GO) test -run '^$$' -fuzz FuzzWorkload -fuzztime 30s ./internal/workloads
	$(GO) test -run '^$$' -fuzz FuzzPartition -fuzztime 30s ./internal/hier
	$(GO) test -run '^$$' -fuzz FuzzHierLoadDesign -fuzztime 30s -fuzzminimizetime 2s ./internal/hier
	$(GO) test -run '^$$' -fuzz FuzzContentionPeriods -fuzztime 30s ./internal/model
	$(GO) test -run '^$$' -fuzz FuzzDesignRequest -fuzztime 30s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzDiskStoreLoad -fuzztime 30s -fuzzminimizetime 2s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzLoadDesign -fuzztime 30s -fuzzminimizetime 2s ./internal/synth
	$(GO) test -run '^$$' -fuzz FuzzMoveEngine -fuzztime 30s ./internal/synth
	$(GO) test -run '^$$' -fuzz FuzzEngineEquivalence -fuzztime 30s ./internal/flitsim
