# Tier-1 verification gate (see README.md): vet (go vet plus a gofmt -l that
# must print nothing), build, the full suite under the race detector, and the
# determinism suite twice — the second -count exercises fresh goroutine
# schedules so an order-dependent reduction cannot pass by luck.
GO ?= go

.PHONY: verify vet build test race determinism fleet cover-serve cover-collective cover-hier bench bench-flitsim bench-warm bench-floorplan bench-synth bench-rounds bench-workers bench-decode bench-all fuzz

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
# its denominator, each side the median of BENCH_COUNT samples. Both sides run
# in the same invocation on the same machine, so the ratio needs no recorded
# baseline, and no target writes a file. With five samples a side the seven
# gates take about 3.3 minutes on a loaded 2-core box (each gate's time and
# its ratios over three such runs are given below); one sample a side took
# about 45 s and let a single noisy sample decide a gate.
#   flitsim:   the event-driven engine vs the cycle-stepping reference (the
#              test oracle in engine_ref_test.go) in three pairs: the
#              compute-gap-heavy CG on the mesh, where idle cycles are skipped;
#              full-size BT on the crossbar, where steady wormhole streaming
#              is leapt; and full-size CG on the mesh, where worms taking
#              turns on shared links make periodic states that are leapt
#              whole periods at a time (the pair also bounds the period
#              test's bookkeeping). Five samples a side: 49-63 s; 201-322x,
#              219-295x and 43-56x.
#   warm:      the same five CG-16 variants synthesized cold vs seeded from a
#              prior design. The floor is 3, down from 5: the ratio measures
#              what seeding saves, and the what-if evaluator halved the cold
#              side (8x became about 4x) while the seeded side, which skips
#              globalRefine and so prices almost no candidates, stood still.
#              Skipping candidates whose floor already loses made cold
#              synthesis faster again (about 4.9x fell to 3.5-4.0x); the
#              floor of 3 holds and is not lowered. Raise it by making seeded
#              synthesis faster, never by slowing cold synthesis. With sealed
#              processors unprobed it read 3.49-4.16x over five runs (median
#              3.73x; the parent 3.82-4.13x in the same alternation). Five
#              samples a side: 17-21 s; 3.11-5.48x (median 4.50x) on a
#              loaded box, the low run with the floor's penalty term making
#              cold synthesis faster again.
#   floorplan: the array-backed delta search vs the map-based reference (the
#              test oracle in placeref_test.go) on CG-16. Five samples a
#              side: 16-18 s; 39-52x.
#   synth:     synthesis with every candidate priced (the test-only
#              priceEveryTarget reference: no dead switch priced for all, no
#              candidate skipped on its floor, every probe of a sealed
#              processor priced and the lists moved at every swap probe) vs
#              production, in three pairs: full-size BT/16, the merge- and
#              Best_Route-bound case (1.54-1.84x over five runs on a 2-core
#              box, median 1.81x), and the FFT/16 NoI level, the probe-bound
#              case (5.22-6.31x, median 5.95x). The floor of 1.3 leaves room
#              for a noisy runner. Production that stops pruning falls to
#              about 1 on BT/16; the parent commit, which probed sealed
#              processors, ran the NoI level in 25-28 ms against this
#              reference's 73 ms (about 2.7x). Since production walks only
#              the live switches and the reference still walks every
#              index, the pairs read 1.82-2.27x (median 2.00x) and
#              5.68-7.05x (median 6.63x) over five runs on a loaded 2-core
#              box. The third pair is full-size FFT/16 under the paper
#              harness's synthesis options on one worker, the paper_cells
#              focus cell, where the floor's penalty term and
#              rerouteAnneal's bound cut the exact pricings 5.3x: 1.65-2.39x
#              over seven runs of five samples a side (median 1.89x), so
#              the gate's floor of 1.3 is about two-thirds of it. Five
#              samples a side: 42-53 s; BT/16 2.06-2.15x, the NoI level
#              7.05-7.47x.
#   rounds:    the FFT/16 NoI level (16 restarts of 16 rounds, all unmet)
#              with every round's network and routing table assembled and
#              validated (the test-only assembleEveryRound) vs production,
#              where a round only colours and counts degrees and a restart
#              assembles once. Median 1.27x over 5 runs on a 2-core box
#              (1.23-1.48x) when it landed; 1.48-1.63x (median 1.61x) once
#              sealed processors went unprobed, since production got faster
#              and assembly did not; 1.27-2.43x (median 1.50x) over five
#              runs on a loaded box once both sides walked only the live
#              switches. The floor of 1.05 stays, and a
#              production path that assembles every round falls to about 1.
#              TestSynthesizeAllocCeiling holds the same run to 15,000
#              allocations (about 7,300; 33,300 assembling every round).
#              Five samples a side: 15-18 s; 1.56-1.88x.
#   workers:   the FFT/16 NoI level on one worker vs two, the first gate on
#              a -workers speedup: its four configured restarts and twelve
#              streamed extension restarts all run, so two workers halve
#              the wall time at best. 1.40-2.14x over five runs on a 2-core
#              box (median 1.55x, on a box shared with other load); the
#              floor of 1.2 leaves room for a noisy runner, and a restart
#              loop that stops overlapping restarts falls to about 1. It
#              needs two CPUs: BENCH_CPUS_workers makes the gate print SKIP
#              and pass where nproc is lower. Five samples a side: 18-20 s;
#              1.36-1.91x.
#   decode:    the noctrace decoder that read each line as a string and split
#              it with strings.Fields (the test oracle decodeFields in
#              decode_ref_test.go) vs Decode, which reads and parses each line
#              in place, on the jitter trace the warm_variants ledger decodes
#              on every miss (CG/16, 39 skewed iterations, about 100 KB).
#              1.44-1.89x over five runs on a loaded 2-core box (median
#              1.75x; five earlier runs read 1.34-2.32x); the floor of 1.2 is
#              about two-thirds of that median, and a decoder that goes back
#              to a string per line falls to about 1. Five samples a side:
#              17-20 s; 1.36-2.18x.
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

BENCH_PKG_synth = ./internal/synth
BENCH_RATIO_synth = BenchmarkSynthesizeBT16Reference:BenchmarkSynthesizeBT16 \
	BenchmarkSynthesizeHierNoIReference:BenchmarkSynthesizeHierNoI \
	BenchmarkSynthesizeFFT16Reference:BenchmarkSynthesizeFFT16
BENCH_MIN_synth = 1.3

BENCH_PKG_rounds = ./internal/synth
BENCH_RATIO_rounds = BenchmarkSynthesizeHierNoIEveryRound:BenchmarkSynthesizeHierNoI
BENCH_MIN_rounds = 1.05

BENCH_PKG_decode = ./internal/trace
BENCH_RATIO_decode = BenchmarkDecodeJitterFields:BenchmarkDecodeJitter
BENCH_MIN_decode = 1.2

BENCH_PKG_workers = ./internal/synth
BENCH_RATIO_workers = BenchmarkSynthesizeHierNoI:BenchmarkSynthesizeHierNoIWorkers2
BENCH_MIN_workers = 1.2
BENCH_CPUS_workers = 2

# Every gate runs each benchmark BENCH_COUNT times and gates the ratio of the
# medians (cmd/benchratio), so one noisy sample on either side cannot decide it.
BENCH_COUNT = 5

# bench_re anchors the -bench regex to exactly the names in the gate's pairs.
empty :=
space := $(empty) $(empty)
bench_re = ^($(subst $(space),|,$(strip $(subst :, ,$(BENCH_RATIO_$*)))))$$

# A gate whose BENCH_CPUS_<gate> (default 1) exceeds nproc prints SKIP and
# passes.
bench_cpus = $(or $(BENCH_CPUS_$*),1)

bench-flitsim bench-warm bench-floorplan bench-synth bench-rounds bench-workers bench-decode: bench-%:
	if [ "$$(nproc)" -lt $(bench_cpus) ]; then \
		echo "SKIP bench-$*: needs $(bench_cpus) CPUs, nproc is $$(nproc)"; \
	else \
		$(GO) test -run '^$$' -bench '$(bench_re)' -benchmem -count $(BENCH_COUNT) $(BENCH_PKG_$*) \
			| $(GO) run ./cmd/benchratio $(foreach r,$(BENCH_RATIO_$*),-ratio '$(r)') -min-ratio $(BENCH_MIN_$*); \
	fi

bench: bench-flitsim bench-warm bench-floorplan bench-synth bench-rounds bench-workers bench-decode

# bench-all is the one performance entry point: `bench`'s seven ratio gates in
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
