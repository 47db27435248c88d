package main

import (
	"flag"
	"reflect"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/synth"
)

func parse(t *testing.T, args ...string) *options {
	t.Helper()
	o, err := parseFlags(flag.NewFlagSet("nocd", flag.ContinueOnError), args)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestFlagDefaults: with no arguments nocd configures the server exactly as
// serve.Config{}.Normalized() and synth.Options{}.Normalized() do, so a new
// server default reaches the daemon without a second literal. -seed is the
// shared cliutil flag, default 1 in every command.
func TestFlagDefaults(t *testing.T) {
	o := parse(t)
	want := serve.Config{}.Normalized()
	want.Synth = synth.Options{}.Normalized()
	want.Synth.Seed = 1
	if !reflect.DeepEqual(o.cfg, want) {
		t.Errorf("default config\n got %+v\nwant %+v", o.cfg, want)
	}
	if o.addr != ":8080" || o.drain != 10*time.Second || o.pprofAddr != "" {
		t.Errorf("daemon defaults = %q/%s/%q, want :8080/10s/\"\"", o.addr, o.drain, o.pprofAddr)
	}
}

// TestParseFlags: every flag lands in its field, and -peers drops whitespace
// and empty members.
func TestParseFlags(t *testing.T) {
	o := parse(t,
		"-addr", "127.0.0.1:0", "-cache-size", "7", "-timeout", "3s", "-warm-threshold", "0.5",
		"-data-dir", "/tmp/designs", "-self", "http://a:1",
		"-peers", "http://a:1, http://b:2,,http://c:3,", "-bulk-max-inflight", "4",
		"-max-inflight", "3", "-max-queue", "9", "-maxdegree", "6", "-maxprocs", "2",
		"-restarts", "5", "-seed", "8", "-workers", "2", "-drain-timeout", "1s", "-pprof-addr", "localhost:0",
	)
	want := serve.Config{
		CacheSize: 7, Timeout: 3 * time.Second, WarmThreshold: 0.5,
		DataDir: "/tmp/designs", Self: "http://a:1",
		Peers:           []string{"http://a:1", "http://b:2", "http://c:3"},
		BulkMaxInFlight: 4, MaxInFlight: 3, MaxQueue: 9,
		Synth: synth.Options{
			Constraints: synth.Constraints{MaxDegree: 6, MaxProcsPerSwitch: 2},
			Restarts:    5, Seed: 8, Workers: 2,
		},
	}
	if !reflect.DeepEqual(o.cfg, want) {
		t.Errorf("parsed config\n got %+v\nwant %+v", o.cfg, want)
	}
	if o.addr != "127.0.0.1:0" || o.drain != time.Second || o.pprofAddr != "localhost:0" {
		t.Errorf("daemon flags = %q/%s/%q, want 127.0.0.1:0/1s/localhost:0", o.addr, o.drain, o.pprofAddr)
	}
	if got := parse(t, "-peers", "").cfg.Peers; got != nil {
		t.Errorf(`-peers "" = %q, want nil`, got)
	}
}
