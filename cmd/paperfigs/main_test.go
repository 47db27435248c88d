package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden")

// TestDeterminismPaperfigsWorkers renders every figure at Quick scale with
// one worker and with eight and requires byte-identical text: the worker
// pool, over cells and over the stages inside a cell, must never change a
// printed table. The one-worker render, concatenated in -fig all order, must
// also match testdata/quick.golden byte for byte, so any change to a printed
// number — from synthesis, floorplan, flitsim or the harness — fails here.
// Regenerate with `go test ./cmd/paperfigs -run TestDeterminismPaperfigsWorkers
// -update` — and say why the figures were allowed to move.
func TestDeterminismPaperfigsWorkers(t *testing.T) {
	render := func(workers int) map[string][]byte {
		cfg := harness.Quick()
		cfg.Workers = workers
		out := make(map[string][]byte, len(figures))
		for _, f := range figures {
			var b bytes.Buffer
			if err := f.run(&b, cfg, true); err != nil {
				t.Fatalf("-fig %s -workers %d: %v", f.name, workers, err)
			}
			if b.Len() == 0 {
				t.Fatalf("-fig %s -workers %d printed nothing", f.name, workers)
			}
			out[f.name] = b.Bytes()
		}
		return out
	}
	serial, wide := render(1), render(8)
	var all bytes.Buffer
	for _, f := range figures {
		all.Write(serial[f.name])
		if !bytes.Equal(serial[f.name], wide[f.name]) {
			t.Errorf("-fig %s differs between -workers 1 and 8:\n--- workers 1\n%s--- workers 8\n%s", f.name, serial[f.name], wide[f.name])
		}
	}

	path := filepath.Join("testdata", "quick.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, all.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if bytes.Equal(all.Bytes(), want) {
		return
	}
	gotLines, wantLines := strings.Split(all.String(), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(gotLines) && i < len(wantLines) && gotLines[i] == wantLines[i] {
		i++
	}
	at := func(lines []string) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<end of output>"
	}
	t.Errorf("-quick -fig all differs from %s first at line %d:\n got: %s\nwant: %s", path, i+1, at(gotLines), at(wantLines))
}
