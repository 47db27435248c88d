package main

import (
	"bytes"
	"testing"

	"repro/internal/harness"
)

// TestDeterminismPaperfigsWorkers renders every figure at Quick scale with
// one worker and with eight and requires byte-identical text: the worker
// pool, over cells and over the stages inside a cell, must never change a
// printed table.
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
	for _, f := range figures {
		if !bytes.Equal(serial[f.name], wide[f.name]) {
			t.Errorf("-fig %s differs between -workers 1 and 8:\n--- workers 1\n%s--- workers 8\n%s", f.name, serial[f.name], wide[f.name])
		}
	}
}
