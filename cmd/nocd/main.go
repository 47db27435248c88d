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
	"strings"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/serve"
	"repro/internal/synth"
)

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fatal(err)
	}
	srv, err := serve.New(o.cfg)
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		fatal(err)
	}
	log.Printf("nocd: serving designs on %s (cache %d, budget %s)", ln.Addr(), o.cfg.CacheSize, o.cfg.Timeout)

	// Profiling stays off the design listener: an explicit mux on its own
	// address, bound only when asked for, so /debug/pprof/* is never
	// reachable through the public surface.
	if o.pprofAddr != "" {
		pln, err := net.Listen("tcp", o.pprofAddr)
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
	if err := serve.Serve(ctx, srv, ln, o.drain); err != nil {
		fatal(err)
	}
	log.Printf("nocd: drained, exiting")
}

// options is nocd's parsed command line: the server's configuration and the
// daemon's own listen address, drain budget and profiling address.
type options struct {
	cfg       serve.Config
	addr      string
	drain     time.Duration
	pprofAddr string
}

// parseFlags declares nocd's flags on fs and parses args. Every flag that
// sets a serve.Config or synth.Options field takes its default from
// serve.Config{}.Normalized() or synth.Options{}.Normalized(), except the
// shared -seed and -workers (cliutil).
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	synthDef, serveDef := synth.Options{}.Normalized(), serve.Config{}.Normalized()
	o := &options{}
	c, sy := &o.cfg, &o.cfg.Synth
	var (
		peers  string
		shared cliutil.Flags
	)
	fs.StringVar(&o.addr, "addr", ":8080", "HTTP listen address")
	fs.IntVar(&c.CacheSize, "cache-size", serveDef.CacheSize,
		"designs held by the content-addressed LRU response cache")
	fs.DurationVar(&c.Timeout, "timeout", serveDef.Timeout,
		"per-request synthesis budget (exceeded requests return 504)")
	fs.Float64Var(&c.WarmThreshold, "warm-threshold", serveDef.WarmThreshold,
		"structural-distance ceiling for warm-start seeding (0 = server default, negative disables)")
	fs.StringVar(&c.DataDir, "data-dir", serveDef.DataDir,
		"directory for the persistent design store (empty = memory only)")
	fs.StringVar(&c.Self, "self", serveDef.Self,
		"this replica's own base URL as listed in -peers")
	fs.StringVar(&peers, "peers", "",
		"comma-separated fleet member base URLs; enables consistent-hash sharding")
	fs.IntVar(&c.BulkMaxInFlight, "bulk-max-inflight", serveDef.BulkMaxInFlight,
		"bulk-lane synthesis watermark (lane=bulk beyond it returns 429; negative disables the lane)")
	fs.IntVar(&c.MaxInFlight, "max-inflight", serveDef.MaxInFlight, "concurrently executing syntheses")
	fs.IntVar(&c.MaxQueue, "max-queue", serveDef.MaxQueue, "syntheses waiting for a slot before 503")
	fs.IntVar(&sy.MaxDegree, "maxdegree", synthDef.MaxDegree, "default maximum switch degree (ports)")
	fs.IntVar(&sy.MaxProcsPerSwitch, "maxprocs", synthDef.MaxProcsPerSwitch, "default maximum processors per switch")
	fs.IntVar(&sy.Restarts, "restarts", synthDef.Restarts, "default synthesis restarts")
	fs.DurationVar(&o.drain, "drain-timeout", 10*time.Second,
		"how long shutdown waits for in-flight requests")
	fs.StringVar(&o.pprofAddr, "pprof-addr", "",
		"serve net/http/pprof on this separate address (e.g. localhost:6060); empty disables")
	shared.RegisterSeed(fs, "default synthesis seed")
	shared.RegisterWorkers(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	sy.Seed, sy.Workers = shared.Seed, shared.Workers
	// Empty members are dropped, so `-peers ""` and a trailing comma both
	// behave.
	for _, p := range strings.Split(peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			c.Peers = append(c.Peers, p)
		}
	}
	return o, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nocd:", err)
	os.Exit(1)
}
