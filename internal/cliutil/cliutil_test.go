package cliutil

import (
	"flag"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

func TestObserverNilWithoutReport(t *testing.T) {
	var f Flags
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f.RegisterReport(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if o := f.Observer(); o != nil {
		t.Errorf("Observer() without -report = %#v, want nil interface", o)
	}
	summary := func() any {
		t.Error("WriteReport without -report built the pattern summary")
		return nil
	}
	if err := f.WriteReport("t", summary); err != nil {
		t.Errorf("WriteReport without -report: %v", err)
	}
}

func TestReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	var f Flags
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f.RegisterSeed(fs, "seed")
	f.RegisterWorkers(fs)
	f.RegisterReport(fs)
	if err := fs.Parse([]string{"-report", path, "-seed", "7", "-workers", "2"}); err != nil {
		t.Fatal(err)
	}
	if f.Seed != 7 || f.Workers != 2 {
		t.Fatalf("parsed Seed=%d Workers=%d, want 7, 2", f.Seed, f.Workers)
	}
	o := f.Observer()
	if o == nil {
		t.Fatal("Observer() with -report = nil")
	}
	if o2 := f.Observer(); o2 != o {
		t.Error("Observer() not stable across calls")
	}
	obs.Count(o, "test.things", 3)
	sp := obs.Span(o, "test.work")
	sp.End()
	if err := f.WriteReport("testtool", func() any { return map[string]int{"n": 1} }); err != nil {
		t.Fatal(err)
	}
	rep, err := obs.ReadReportFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tool != "testtool" {
		t.Errorf("Tool = %q, want testtool", rep.Tool)
	}
	if pat, ok := rep.Pattern.(map[string]any); !ok || pat["n"] != 1.0 {
		t.Errorf("Pattern = %#v, want the summary {n: 1}", rep.Pattern)
	}
	if rep.Counters["test.things"] != 3 {
		t.Errorf("counter test.things = %d, want 3", rep.Counters["test.things"])
	}
	if len(rep.Spans) != 1 || rep.Spans[0].Name != "test.work" {
		t.Errorf("spans = %+v, want one test.work span", rep.Spans)
	}
}
