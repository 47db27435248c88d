package harness

import (
	"fmt"
	"strings"

	"repro/internal/coloring"
	"repro/internal/floorplan"
	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/synth"
)

// WalkthroughResult captures the Section 3.4 design example on the Figure 1
// CG-16 pattern: the cut colorings of Figure 2 and the final network of
// Figure 5, plus the Figure 6 floorplan accounting.
type WalkthroughResult struct {
	// MaxCliques is the size of the maximum clique set (the paper: 3).
	MaxCliques int
	// Cut1Links and Cut2Links are the fast-coloring link counts for the
	// two cuts of Figures 1-2 (the paper: 4 and 3).
	Cut1Links int
	Cut2Links int
	// Cut1Exact and Cut2Exact are the formal (chromatic) counts; fast
	// coloring is exact on this example.
	Cut1Exact int
	Cut2Exact int

	// Final network statistics (Figure 5(f)).
	Switches       int
	Links          int
	MaxDegree      int
	ConstraintsMet bool
	ContentionFree bool

	// Floorplan accounting (Figure 6).
	SwitchArea  int
	LinkArea    int
	MeshSwArea  int
	MeshLnkArea int
}

// Walkthrough reproduces the paper's worked example end to end.
func (c Config) Walkthrough() (*WalkthroughResult, error) {
	pat := nas.Figure1Pattern()
	cliques := model.MaxCliqueSet(pat)
	ix := model.NewFlowIndex(pat.Flows())
	cliqueBits := ix.CliqueBits(cliques)
	contention := model.ConflictMatrixFromCliques(ix, cliques)

	w := &WalkthroughResult{MaxCliques: len(cliques)}

	// A cut's link count is the larger of its two directions' color
	// counts (Section 3.1).
	cutLinks := func(inA func(int) bool) (fast, exact int) {
		fwd, bwd := model.NewBitSet(ix.Len()), model.NewBitSet(ix.Len())
		for id, f := range ix.Flows() {
			switch {
			case inA(f.Src) && !inA(f.Dst):
				fwd.Set(id)
			case !inA(f.Src) && inA(f.Dst):
				bwd.Set(id)
			}
		}
		for _, dir := range []model.BitSet{fwd, bwd} {
			if k := coloring.FastColorBits(cliqueBits, dir); k > fast {
				fast = k
			}
			if k, _, _ := coloring.Color(dir, contention); k > exact {
				exact = k
			}
		}
		return fast, exact
	}
	// Cut 1: paper nodes 1-8 vs 9-16 (0-based: 0-7).
	w.Cut1Links, w.Cut1Exact = cutLinks(func(n int) bool { return n <= 7 })
	// Cut 2: paper nodes 1-9 vs 10-16 (0-based: 0-8).
	w.Cut2Links, w.Cut2Exact = cutLinks(func(n int) bool { return n <= 8 })

	res, err := synth.Synthesize(pat, c.synthOptions())
	if err != nil {
		return nil, err
	}
	w.Switches = res.Net.NumSwitches()
	w.Links = res.Net.TotalLinks()
	w.MaxDegree = res.Net.MaxDegree()
	w.ConstraintsMet = res.ConstraintsMet
	w.ContentionFree = res.ContentionFree

	plan, err := floorplan.Place(res.Net, floorplan.Options{Obs: c.Obs})
	if err != nil {
		return nil, err
	}
	w.SwitchArea = plan.SwitchArea
	w.LinkArea = plan.TotalArea()
	w.MeshSwArea, w.MeshLnkArea = floorplan.MeshBaseline(pat.Procs)
	return w, nil
}

// Render formats the walkthrough result.
func (w *WalkthroughResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 3.4 walkthrough on the Figure 1 CG-16 pattern\n")
	fmt.Fprintf(&b, "maximum clique set size:           %d (paper: 3)\n", w.MaxCliques)
	fmt.Fprintf(&b, "Cut 1 links (fast / formal):       %d / %d (paper: 4)\n", w.Cut1Links, w.Cut1Exact)
	fmt.Fprintf(&b, "Cut 2 links (fast / formal):       %d / %d (paper: 3)\n", w.Cut2Links, w.Cut2Exact)
	fmt.Fprintf(&b, "final network: %d switches, %d links, max degree %d (constraint 5)\n",
		w.Switches, w.Links, w.MaxDegree)
	fmt.Fprintf(&b, "constraints met: %v, contention-free (Theorem 1): %v\n", w.ConstraintsMet, w.ContentionFree)
	fmt.Fprintf(&b, "floorplan: switch area %d vs mesh %d, link area %d vs mesh %d\n",
		w.SwitchArea, w.MeshSwArea, w.LinkArea, w.MeshLnkArea)
	return b.String()
}
