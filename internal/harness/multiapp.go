package harness

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// MultiAppResult evaluates the reconfigurable-workload extension sketched in
// the paper's introduction: one network synthesized for the concatenation of
// several applications, which must then be contention-free for each of them,
// compared against provisioning a separate network per application.
type MultiAppResult struct {
	Apps  []string
	Procs int

	// Per-application dedicated networks.
	OwnSwitches map[string]int
	OwnLinks    map[string]int

	// The shared network synthesized for the concatenated pattern.
	MergedSwitches int
	MergedLinks    int
	ConstraintsMet bool

	// FreeFor reports Theorem 1 per application on the shared network.
	FreeFor map[string]bool

	// ExecRatio is each app's execution time on the shared network
	// normalized to its own dedicated network.
	ExecRatio map[string]float64
}

// MultiApp synthesizes one network for several applications at once and
// measures what the sharing costs.
func (c Config) MultiApp(apps []string, procs int) (*MultiAppResult, error) {
	res := &MultiAppResult{
		Apps:        append([]string(nil), apps...),
		Procs:       procs,
		OwnSwitches: make(map[string]int),
		OwnLinks:    make(map[string]int),
		FreeFor:     make(map[string]bool),
		ExecRatio:   make(map[string]float64),
	}
	sort.Strings(res.Apps)
	// Phase 1: each app's dedicated design is an independent cell.
	dedicated, err := parallel.MapObserved(c.Obs, "harness.multiapp.dedicated", c.Workers, len(res.Apps), func(i int) (*Design, error) {
		d, err := c.BuildDesign(res.Apps[i], procs)
		if err != nil {
			return nil, fmt.Errorf("multiapp %s: %v", res.Apps[i], err)
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	designs := make(map[string]*Design)
	var pats []*model.Pattern
	for i, app := range res.Apps {
		d := dedicated[i]
		designs[app] = d
		pats = append(pats, d.Pattern)
		res.OwnSwitches[app] = d.Result.Net.NumSwitches()
		res.OwnLinks[app] = d.Result.Net.TotalLinks()
	}
	merged, err := trace.Concat("multi."+strings.Join(res.Apps, "+"), pats...)
	if err != nil {
		return nil, err
	}
	mergedDesign, err := c.designFor("merged", procs, merged)
	if err != nil {
		return nil, err
	}
	mergedRes := mergedDesign.Result
	res.MergedSwitches = mergedRes.Net.NumSwitches()
	res.MergedLinks = mergedRes.Net.TotalLinks()
	res.ConstraintsMet = mergedRes.ConstraintsMet

	// Phase 2: per-app Theorem 1 checks and simulations against the
	// shared network are again independent cells; the merged design is
	// only read concurrently.
	ix := model.NewFlowIndex(merged.Flows())
	r := mergedRes.Table.ConflictMatrix(ix)
	type appEval struct {
		free  bool
		ratio float64
	}
	evals, err := parallel.MapObserved(c.Obs, "harness.multiapp.eval", c.Workers, len(res.Apps), func(i int) (appEval, error) {
		d := designs[res.Apps[i]]
		free, _ := model.ContentionFreeBits(model.ConflictMatrixFromCliques(ix, model.ContentionPeriods(d.Pattern)), r)
		own, err := c.simulateGenerated(d.Pattern, d)
		if err != nil {
			return appEval{}, err
		}
		shared, err := c.simulateGenerated(d.Pattern, mergedDesign)
		if err != nil {
			return appEval{}, err
		}
		return appEval{free: free, ratio: float64(shared.ExecCycles) / float64(own.ExecCycles)}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, app := range res.Apps {
		res.FreeFor[app] = evals[i].free
		res.ExecRatio[app] = evals[i].ratio
	}
	return res, nil
}

// Render formats the multi-application result.
func (m *MultiAppResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Reconfigurable-workload extension: one network for %v (%d procs)\n", m.Apps, m.Procs)
	sumSw, sumLn := 0, 0
	for _, app := range m.Apps {
		fmt.Fprintf(&b, "  %-4s own network: %2d switches %2d links\n", app, m.OwnSwitches[app], m.OwnLinks[app])
		sumSw += m.OwnSwitches[app]
		sumLn += m.OwnLinks[app]
	}
	fmt.Fprintf(&b, "  separate total:   %2d switches %2d links\n", sumSw, sumLn)
	fmt.Fprintf(&b, "  shared network:   %2d switches %2d links (constraints met: %v)\n",
		m.MergedSwitches, m.MergedLinks, m.ConstraintsMet)
	for _, app := range m.Apps {
		fmt.Fprintf(&b, "  %-4s on shared: contention-free=%v exec/own=%.3f\n",
			app, m.FreeFor[app], m.ExecRatio[app])
	}
	return b.String()
}
