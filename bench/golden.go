package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/collective"
	"repro/internal/hier"
	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/routing"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/trace"
)

// goldenDesign pins one response: the SHA-256 of its design document and
// its Theorem 1 verdict.
type goldenDesign struct {
	SHA256         string `json:"sha256"`
	ContentionFree bool   `json:"contention_free"`
}

// goldenSim pins one flit-level replay of a cell. FlitHops is only visible
// to the traced replay (harness rows do not carry it); untraced runs check
// ExecCycles alone.
type goldenSim struct {
	Topology   string `json:"topology"`
	ExecCycles int64  `json:"exec_cycles"`
	FlitHops   int64  `json:"flit_hops"`
}

// golden is bench/golden.json: the outputs a speed-up must leave identical.
type golden struct {
	Designs map[string]goldenDesign `json:"designs"`
	Cells   map[string][]goldenSim  `json:"cells"`
}

func goldenPath() string { return filepath.Join("bench", "golden.json") }

func loadGolden() (*golden, error) {
	raw, err := os.ReadFile(goldenPath())
	if err != nil {
		return nil, err
	}
	g := &golden{}
	if err := json.Unmarshal(raw, g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(), err)
	}
	return g, nil
}

func (g *golden) save() error {
	raw, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(), append(raw, '\n'), 0o644)
}

// designFields is the part of a nocd.design response the checker reads.
type designFields struct {
	ContentionFree bool            `json:"contention_free"`
	Procs          int             `json:"procs"`
	Design         json.RawMessage `json:"design"`
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// checker compares responses with golden.json, or — in update mode —
// records them. It is shared by the load generator's clients.
type checker struct {
	g      *golden
	update bool

	mu       sync.Mutex
	reproved map[string]bool // classes already re-proved this run
}

func newChecker(g *golden, update bool) *checker {
	return &checker{g: g, update: update, reproved: map[string]bool{}}
}

// design checks one 200 response body of a /v1/design request (or one batch
// row's response) against the op's golden entry, and re-proves Theorem 1 on
// the first contention-free response of each class.
func (c *checker) design(class, key string, reqBody, respBody []byte) error {
	var f designFields
	if err := json.Unmarshal(respBody, &f); err != nil {
		return fmt.Errorf("%s: undecodable response: %v", class, err)
	}
	if len(f.Design) == 0 {
		return fmt.Errorf("%s: response carries no design", class)
	}
	if key != "" {
		got := goldenDesign{SHA256: digest(f.Design), ContentionFree: f.ContentionFree}
		c.mu.Lock()
		want, ok := c.g.Designs[key]
		if c.update && (!ok || want == got) {
			c.g.Designs[key] = got
			want, ok = got, true
		}
		c.mu.Unlock()
		if !ok {
			return fmt.Errorf("%s: no golden entry %q (run -update-golden)", class, key)
		}
		if got != want {
			return fmt.Errorf("%s: design %q is %s cf=%t, golden %s cf=%t", class, key,
				got.SHA256[:12], got.ContentionFree, want.SHA256[:12], want.ContentionFree)
		}
	}
	c.mu.Lock()
	first := f.ContentionFree && reqBody != nil && !c.reproved[class]
	if first {
		c.reproved[class] = true
	}
	c.mu.Unlock()
	if first {
		if err := reprove(reqBody, f.Design); err != nil {
			return fmt.Errorf("%s: Theorem 1 re-proof: %v", class, err)
		}
	}
	return nil
}

// cell checks one paper cell's simulated statistics. hops is false for
// harness rows, which carry no FlitHops.
func (c *checker) cell(key string, got []goldenSim, hops bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	want, ok := c.g.Cells[key]
	if c.update && !ok {
		// Only the traced replay sees FlitHops, so only it records; a cell
		// recorded once is compared from then on, like any other run.
		if hops {
			c.g.Cells[key] = got
		}
		return nil
	}
	if !ok || len(want) != len(got) {
		return fmt.Errorf("cell %s: no matching golden entry (run -update-golden)", key)
	}
	for i, w := range want {
		g := got[i]
		if g.Topology != w.Topology || g.ExecCycles != w.ExecCycles || (hops && g.FlitHops != w.FlitHops) {
			return fmt.Errorf("cell %s on %s: exec=%d hops=%d, golden %s exec=%d hops=%d",
				key, g.Topology, g.ExecCycles, g.FlitHops, w.Topology, w.ExecCycles, w.FlitHops)
		}
	}
	return nil
}

// requestPattern rebuilds the pattern a design request describes, the way
// the server does: the inline trace if there is one, else NAS names first,
// then collectives.
func requestPattern(req *serve.DesignRequest) (*model.Pattern, error) {
	switch {
	case req.Trace != "":
		return trace.Decode(strings.NewReader(req.Trace))
	case isNAS(req.Benchmark):
		return nas.Generate(req.Benchmark, req.Procs, nas.Config{Iterations: req.Iterations})
	default:
		return collective.Generate(req.Benchmark, req.Procs, collective.Config{Repeats: req.Iterations})
	}
}

// reprove recomputes C ∩ R = ∅ for a response from the request's own
// pattern and the returned design document, through public functions only:
// C from the pattern's maximum cliques, R from the loaded routing table.
// A hier-design is re-proved level by level on the split sub-patterns.
func reprove(reqBody, design []byte) error {
	var req serve.DesignRequest
	if err := json.Unmarshal(reqBody, &req); err != nil {
		return err
	}
	pat, err := requestPattern(&req)
	if err != nil {
		return err
	}
	if req.Hier == nil {
		_, table, err := synth.LoadDesign(bytes.NewReader(design))
		if err != nil {
			return err
		}
		return contentionFree("flat", pat, table)
	}
	d, err := hier.LoadDesign(bytes.NewReader(design))
	if err != nil {
		return err
	}
	split, err := hier.SplitPattern(pat, d.Assign)
	if err != nil {
		return err
	}
	for i, lv := range d.Chiplets {
		if err := contentionFree(fmt.Sprintf("chiplet %d", i), split.Chiplets[i], lv.Table); err != nil {
			return err
		}
	}
	if d.NoI != nil {
		return contentionFree("noi", split.NoI, d.NoI.Table)
	}
	return nil
}

func contentionFree(level string, pat *model.Pattern, table *routing.Table) error {
	ix := model.NewFlowIndex(pat.Flows())
	c := model.ConflictMatrixFromCliques(ix, model.MaxCliqueSet(pat))
	r := table.ConflictMatrix(ix)
	if ok, witnesses := model.ContentionFreeBits(c, r); !ok {
		return fmt.Errorf("%s: C ∩ R holds %d pairs, first %v", level, len(witnesses), witnesses[0])
	}
	return nil
}
