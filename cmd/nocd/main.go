// Command nocd is the design server: a long-running daemon that accepts
// communication patterns over HTTP/JSON, runs the full synthesize → color →
// floorplan-ready pipeline, and returns the generated design plus its
// telemetry RunReport. Identical patterns are served from a layered design
// store — an in-memory LRU in front of an optional persistent disk store
// (-data-dir; byte-identical replay, survives restarts) — and concurrent
// identical requests collapse onto one synthesis; structurally similar
// patterns warm-start from the nearest cached design (the X-Nocd-Warm
// response header reports cold vs seeded; -warm-threshold -1 disables).
// With -peers, replicas shard the key space by consistent hashing and
// forward each request to its owning replica, so a fleet behaves like one
// big cache. SIGTERM/SIGINT drain in-flight requests before exit.
//
// Usage:
//
//	nocd [-addr :8080] [-cache-size 128] [-timeout 2m] [-warm-threshold 0] [-data-dir DIR]
//	     [-self URL] [-peers URL,URL,...] [-bulk-max-inflight 1] [-maxdegree 5]
//	     [-maxprocs 4] [-restarts 4] [-seed 1] [-workers 0] [-max-inflight 2] [-max-queue 64]
//	     [-drain-timeout 10s] [-pprof-addr localhost:6060]
//
// Endpoints (versioned under /v1/):
//
//	POST /v1/design        {"benchmark":"CG","procs":16}, {"benchmark":"ring-allreduce","procs":64},
//	                       or {"trace":"noctrace v1\n..."}; optional "lane":"bulk"
//	POST /v1/designs       JSON array of design requests → NDJSON rows in completion order
//	GET  /v1/design/{key}  replay a cached design by its X-Nocd-Pattern-Hash key (404 if evicted)
//	GET  /v1/healthz       liveness probe
//	GET  /v1/metrics       server-lifetime RunReport JSON (serve.*, synth.*, coloring.* counters)
//	GET  /v1/benchmarks    the workload names: NAS benchmarks plus collectives
//
// All error statuses return a JSON envelope {"error":{"code","message"}}.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/serve"
	"repro/internal/synth"
)

func main() {
	synthDef, serveDef := synth.Options{}.Normalized(), serve.Config{}.Normalized()
	var (
		maxDeg   = flag.Int("maxdegree", synthDef.MaxDegree, "default maximum switch degree (ports)")
		maxProcs = flag.Int("maxprocs", synthDef.MaxProcsPerSwitch, "default maximum processors per switch")
		restarts = flag.Int("restarts", synthDef.Restarts, "default synthesis restarts")
		inflight = flag.Int("max-inflight", serveDef.MaxInFlight, "concurrently executing syntheses")
		queue    = flag.Int("max-queue", serveDef.MaxQueue, "syntheses waiting for a slot before 503")
		drain    = flag.Duration("drain-timeout", 10*time.Second,
			"how long shutdown waits for in-flight requests")
		pprofAddr = flag.String("pprof-addr", "",
			"serve net/http/pprof on this separate address (e.g. localhost:6060); empty disables")
		shared cliutil.Flags
	)
	shared.RegisterSeed(flag.CommandLine, "default synthesis seed")
	shared.RegisterWorkers(flag.CommandLine)
	shared.RegisterServe(flag.CommandLine)
	flag.Parse()

	srv, err := serve.New(serve.Config{
		CacheSize:       shared.CacheSize,
		DataDir:         shared.DataDir,
		Self:            shared.Self,
		Peers:           shared.PeerList(),
		MaxInFlight:     *inflight,
		MaxQueue:        *queue,
		BulkMaxInFlight: shared.BulkMaxInflight,
		Timeout:         shared.Timeout,
		WarmThreshold:   shared.WarmThreshold,
		Synth: synth.Options{
			Constraints: synth.Constraints{MaxDegree: *maxDeg, MaxProcsPerSwitch: *maxProcs},
			Seed:        shared.Seed,
			Restarts:    *restarts,
			Workers:     shared.Workers,
		},
	})
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", shared.Addr)
	if err != nil {
		fatal(err)
	}
	log.Printf("nocd: serving designs on %s (cache %d, budget %s)", ln.Addr(), shared.CacheSize, shared.Timeout)

	// Profiling stays off the design listener: an explicit mux on its own
	// address, bound only when asked for, so /debug/pprof/* is never
	// reachable through the public surface.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fatal(err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		log.Printf("nocd: pprof on http://%s/debug/pprof/", pln.Addr())
		go func() {
			if err := http.Serve(pln, mux); err != nil {
				log.Printf("nocd: pprof listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve.Serve(ctx, srv, ln, *drain); err != nil {
		fatal(err)
	}
	log.Printf("nocd: drained, exiting")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nocd:", err)
	os.Exit(1)
}
