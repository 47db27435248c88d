# Tier-1 verification gate (see README.md): vet (go vet plus a gofmt -l that
# must print nothing), build, the full suite under the race detector, and the
# determinism suite twice — the second -count exercises fresh goroutine
# schedules so an order-dependent reduction cannot pass by luck. `make census`
# (outside verify) lists the functions the production corpus never runs.
GO ?= go

.PHONY: verify vet build test race determinism fleet cover-serve cover-collective cover-hier census fuzz

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

# census is the coverage census, the dynamic half of TestReachable
# (census.sh): it builds every cmd/ binary with -cover -coverpkg=repro/...,
# runs the production corpus (full-scale and -quick paperfigs, tracegen,
# netgen over flat and hier cells, netsim on every topology, benchratio, and
# the four ledger workloads with -trace 1 against a coverage-built nocd), and
# fails unless the functions that never ran (Error, Unwrap, String and
# GoString methods, fatal and reach_allow.txt's names left out) are exactly
# testdata/census.txt's. The fresh list lands in the untracked CENSUS.txt for
# the CI artifact; everything else goes to a removed temporary directory.
# About 1.5 minutes on a 2-core box.
census:
	GO=$(GO) sh census.sh

# bench-<gate> is a same-machine speedup gate, one per name in BENCH_GATES:
# it runs exactly the benchmarks named in BENCH_RATIO_<gate> (a
# space-separated list of NUM:DEN) and fails unless every numerator takes at
# least BENCH_MIN_<gate> times the ns/op of its denominator, each side the
# median of BENCH_COUNT samples. Both sides run in the same invocation on the
# same machine, so the ratio needs no recorded baseline, and no target writes
# a file. With five samples a side the nine gates take about 4 minutes on a
# loaded 2-core box; one sample a side let a single noisy sample decide a
# gate. Each gate's time and its latest measured ratios (five samples a side,
# loaded 2-core box) are given below.
#   flitsim:   the event-driven engine vs the cycle-stepping reference (the
#              test oracle in engine_ref_test.go) in three pairs: the
#              compute-gap-heavy CG on the mesh, where idle cycles are skipped;
#              full-size BT on the crossbar, where steady wormhole streaming
#              is leapt; and full-size CG on the mesh, where worms taking
#              turns on shared links make periodic states that are leapt
#              whole periods at a time (the pair also bounds the period
#              test's bookkeeping). 54-60 s; 314-502x, 409-516x and
#              47-50x (three runs).
#   warm:      the same five CG-16 variants synthesized cold vs seeded from a
#              prior design. The ratio measures what seeding saves, so
#              pruning that speeds up cold synthesis lowers it; raise the
#              floor of 3 by making seeded synthesis faster, never by slowing
#              cold synthesis. 17-21 s; 3.11-5.48x (median 4.50x); five
#              runs on an idle 2-core box read 4.28-4.62x once colour took
#              its Fast_Color widths from the count tables.
#   floorplan: the array-backed delta search vs the map-based reference (the
#              test oracle in placeref_test.go) on CG-16. 16-18 s; 38-52x.
#   synth:     synthesis with every candidate priced (the test-only
#              priceEveryTarget reference: every dead switch and every index
#              priced, no candidate skipped on its floor, every probe of a
#              sealed processor priced and the lists moved at every swap
#              probe) vs production, in three pairs: full-size BT/16, the
#              merge- and Best_Route-bound case; the FFT/16 NoI level, the
#              probe-bound case; and full-size FFT/16 under the paper
#              harness's synthesis options on one worker, the paper_cells
#              focus cell. Production that stops pruning falls to about 1 on
#              BT/16; the floor of 1.3 is about two-thirds of the FFT/16
#              pair's median and leaves room for a noisy runner. 42-53 s;
#              BT/16 1.82-2.27x, the NoI level 5.68-7.47x, FFT/16 1.65-2.39x
#              (median 1.89x).
#   rounds:    the FFT/16 NoI level (16 restarts of 16 rounds, all unmet)
#              with every round's network and routing table assembled and
#              validated (the test-only assembleEveryRound) vs production,
#              where a round only colours and counts degrees and a restart
#              assembles once. A production path that assembles every round
#              falls to about 1, hence the floor of 1.05.
#              TestSynthesizeAllocCeiling holds the same run to 15,000
#              allocations (about 7,300; 33,300 assembling every round).
#              15-18 s; 1.27-2.43x (median 1.50x).
#   workers:   the FFT/16 NoI level on one worker vs two: its four configured
#              restarts and twelve streamed extension restarts all run, so
#              two workers halve the wall time at best, and a restart loop
#              that stops overlapping restarts falls to about 1; the floor of
#              1.2 leaves room for a noisy runner. It needs two CPUs:
#              BENCH_CPUS_workers makes the gate print SKIP and pass where
#              nproc is lower. 18-20 s; 1.40-2.14x (median 1.55x).
#   decode:    the noctrace decoder that read each line as a string and split
#              it with strings.Fields (the test oracle decodeFields in
#              decode_ref_test.go) vs Decode, which reads and parses each line
#              in place, on the jitter trace the warm_variants ledger decodes
#              on every miss (CG/16, 39 skewed iterations, about 100 KB). A
#              decoder that goes back to a string per line falls to about 1;
#              the floor of 1.2 is about two-thirds of the median. 17-20 s;
#              1.36-2.18x (median 1.75x).
#   ingest:    the request-path passes over ring-allreduce/64's 16,128
#              messages through their test oracles vs production, one pair
#              per package that owns an oracle: trace.BuildPhased against
#              the builder that appended each message and grew each phase's
#              list (build_ref_test.go); ContentionPeriods and Pattern.Flows
#              against the index that sorted every message's key and the
#              map (flowindex_ref_test.go); and the eight-cluster flow
#              partition against the one that summed every pair's members on
#              every scan (partition_ref_test.go). A pass that goes back to
#              per-message growth, sorting or rescanning falls to about 1;
#              the floor of 1.5 is about two-thirds of the lowest pair's
#              median. 42 s; BuildPhased 5.42-6.19x, the interning
#              2.22-2.40x (median 2.37x), the partition 5.87-7.65x (six
#              runs, 2-core box).
#   request:   the request path's JSON through its encoding/json oracles vs
#              production, in two pairs: the jitter body planned through the
#              json.Decoder (decodeRequestJSON in envelope_ref_test.go) vs
#              the one-pass envelope decoder; and the ring-allreduce/64 and
#              CG/16 at four clusters responses rendered by marshalling and
#              indenting the whole response around a saved design
#              (renderResponseMarshal in render_ref_test.go) vs renderResponse,
#              which writes the design once into each form. A path that goes
#              back to encoding/json falls to about 1; the floor of 1.7
#              is about two-thirds of the render pair's median. 31 s;
#              decode 8.53-10.75x, render 2.27-3.20x (four runs, 2-core
#              box).
BENCH_GATES = flitsim warm floorplan synth rounds workers decode ingest request
BENCH_TARGETS = $(addprefix bench-,$(BENCH_GATES))
.PHONY: bench bench-all $(BENCH_TARGETS)

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

BENCH_PKG_ingest = ./internal/trace ./internal/model ./internal/hier
BENCH_RATIO_ingest = BenchmarkBuildPhasedRing64Reference:BenchmarkBuildPhasedRing64 \
	BenchmarkInternRing64Reference:BenchmarkInternRing64 \
	BenchmarkFlowPartitionRing64Reference:BenchmarkFlowPartitionRing64
BENCH_MIN_ingest = 1.5

BENCH_PKG_request = ./internal/serve
BENCH_RATIO_request = BenchmarkDecodeRequestJitterJSON:BenchmarkDecodeRequestJitter \
	BenchmarkRenderResponsesMarshal:BenchmarkRenderResponses
BENCH_MIN_request = 1.7

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

$(BENCH_TARGETS): bench-%:
	if [ "$$(nproc)" -lt $(bench_cpus) ]; then \
		echo "SKIP bench-$*: needs $(bench_cpus) CPUs, nproc is $$(nproc)"; \
	else \
		$(GO) test -run '^$$' -bench '$(bench_re)' -benchmem -count $(BENCH_COUNT) $(BENCH_PKG_$*) \
			| $(GO) run ./cmd/benchratio $(foreach r,$(BENCH_RATIO_$*),-ratio '$(r)') -min-ratio $(BENCH_MIN_$*); \
	fi

bench: $(BENCH_TARGETS)

# bench-all is the one performance entry point: `bench`'s nine ratio gates in
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
	$(GO) test -run '^$$' -fuzz '^FuzzDesignRequest$$' -fuzztime 30s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzDesignRequestDecode -fuzztime 30s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzDiskStoreLoad -fuzztime 30s -fuzzminimizetime 2s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzLoadDesign -fuzztime 30s -fuzzminimizetime 2s ./internal/synth
	$(GO) test -run '^$$' -fuzz FuzzMoveEngine -fuzztime 30s ./internal/synth
	$(GO) test -run '^$$' -fuzz FuzzCertifiedColoring -fuzztime 30s ./internal/coloring
	$(GO) test -run '^$$' -fuzz FuzzEngineEquivalence -fuzztime 30s ./internal/flitsim
