package nas

import (
	"testing"

	"repro/internal/model"
	"repro/internal/trace"
)

func TestGenerateAllPaperConfigs(t *testing.T) {
	for _, name := range Names() {
		small, large := PaperProcs(name)
		for _, procs := range []int{small, large} {
			p, err := Generate(name, procs, Config{})
			if err != nil {
				t.Fatalf("%s/%d: %v", name, procs, err)
			}
			if p.Procs != procs {
				t.Errorf("%s/%d: Procs=%d", name, procs, p.Procs)
			}
			if len(p.Messages) == 0 || len(p.Phases) == 0 {
				t.Errorf("%s/%d: empty pattern", name, procs)
			}
			// Every processor must participate: the paper's traces
			// are balanced workloads.
			used := make([]bool, procs)
			for _, m := range p.Messages {
				used[m.Src] = true
				used[m.Dst] = true
			}
			for i, u := range used {
				if !u {
					t.Errorf("%s/%d: processor %d never communicates", name, procs, i)
				}
			}
		}
	}
}

func TestGenerateUnknown(t *testing.T) {
	if _, err := Generate("LU", 8, Config{}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestGeneratorConstraints(t *testing.T) {
	if _, err := CG(12, Config{}); err == nil {
		t.Error("CG accepted non-power-of-two count")
	}
	if _, err := FFT(10, Config{}); err == nil {
		t.Error("FFT accepted non-power-of-two count")
	}
	if _, err := MG(6, Config{}); err == nil {
		t.Error("MG accepted non-power-of-two count")
	}
	if _, err := BT(8, Config{}); err == nil {
		t.Error("BT accepted non-square count")
	}
	if _, err := SP(12, Config{}); err == nil {
		t.Error("SP accepted non-square count")
	}
}

// TestSingleProcessorIsEmpty: one processor is a power of two and a perfect
// square, so every generator accepts it, and the pattern it describes has
// no messages. FFT and MG used to index their last phase and panic.
func TestSingleProcessorIsEmpty(t *testing.T) {
	for _, name := range Names() {
		p, err := Generate(name, 1, Config{})
		if err != nil {
			t.Errorf("%s/1: %v", name, err)
		} else if len(p.Messages) != 0 {
			t.Errorf("%s/1: %d messages, want none", name, len(p.Messages))
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, name := range Names() {
		_, large := PaperProcs(name)
		a, err := Generate(name, large, Config{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(name, large, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Messages) != len(b.Messages) {
			t.Fatalf("%s: nondeterministic message count", name)
		}
		for i := range a.Messages {
			if a.Messages[i] != b.Messages[i] {
				t.Fatalf("%s: message %d differs across runs", name, i)
			}
		}
	}
}

func TestConfigKnobs(t *testing.T) {
	base, _ := CG(16, Config{})
	scaled, _ := CG(16, Config{ByteScale: 2})
	if scaled.TotalBytes() != 2*base.TotalBytes() {
		t.Errorf("ByteScale: %d vs 2*%d", scaled.TotalBytes(), base.TotalBytes())
	}
	more, _ := CG(16, Config{Iterations: 8})
	def, _ := CG(16, Config{Iterations: 4})
	if len(more.Messages) != 2*len(def.Messages) {
		t.Errorf("Iterations: %d vs 2*%d messages", len(more.Messages), len(def.Messages))
	}
	slow, _ := CG(16, Config{ComputeScale: 3})
	_, fin1 := base.Span()
	_, fin2 := slow.Span()
	if fin2 <= fin1 {
		t.Errorf("ComputeScale did not lengthen the trace: %g vs %g", fin2, fin1)
	}
}

func TestCGPhaseStructure(t *testing.T) {
	p, err := CG(16, Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 4x4 grid: reductions at distance 1 and 2, then transpose: 3 phases.
	if len(p.Phases) != 3 {
		t.Fatalf("CG.16 one iteration: %d phases, want 3", len(p.Phases))
	}
	// The transpose phase must contain exactly the 12 off-diagonal mirror
	// exchanges of the paper's period 3.
	last := p.Phases[len(p.Phases)-1]
	if len(last.Messages) != 12 {
		t.Fatalf("transpose phase has %d messages, want 12", len(last.Messages))
	}
	want := map[model.Flow]bool{}
	for _, pr := range [][2]int{{2, 5}, {3, 9}, {4, 13}, {7, 10}, {8, 14}, {12, 15}} {
		want[model.F(pr[0]-1, pr[1]-1)] = true
		want[model.F(pr[1]-1, pr[0]-1)] = true
	}
	for _, mi := range last.Messages {
		f := p.Messages[mi].Flow()
		if !want[f] {
			t.Errorf("unexpected transpose flow %v", f)
		}
		delete(want, f)
	}
	if len(want) != 0 {
		t.Errorf("missing transpose flows: %v", want)
	}
}

func TestCGTransposeInvolution(t *testing.T) {
	for _, procs := range []int{4, 8, 16, 32, 64} {
		rows, cols := cgGrid(procs)
		if rows*cols != procs {
			t.Fatalf("cgGrid(%d) = %dx%d", procs, rows, cols)
		}
		for p := 0; p < procs; p++ {
			q := cgTranspose(p, rows, cols)
			if q < 0 || q >= procs {
				t.Fatalf("procs=%d: transpose(%d)=%d out of range", procs, p, q)
			}
			if back := cgTranspose(q, rows, cols); back != p {
				t.Fatalf("procs=%d: transpose not an involution at %d: %d -> %d", procs, p, q, back)
			}
		}
	}
}

func TestFFTIsAllToAll(t *testing.T) {
	p, err := FFT(16, Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Across one iteration every processor exchanges with every other
	// member of its row and column group (4x4 grid: 3 + 3 partners).
	partners := make(map[int]map[int]bool)
	for _, m := range p.Messages {
		if partners[m.Src] == nil {
			partners[m.Src] = make(map[int]bool)
		}
		partners[m.Src][m.Dst] = true
	}
	for src := 0; src < 16; src++ {
		if len(partners[src]) != 6 {
			t.Errorf("proc %d has %d partners, want 6", src, len(partners[src]))
		}
	}
	// Each phase is a permutation: in-degree = out-degree = 1 per proc.
	for pi, ph := range p.Phases {
		in := make(map[int]int)
		out := make(map[int]int)
		for _, mi := range ph.Messages {
			in[p.Messages[mi].Dst]++
			out[p.Messages[mi].Src]++
		}
		for proc := 0; proc < 16; proc++ {
			if in[proc] != 1 || out[proc] != 1 {
				t.Fatalf("phase %d not a permutation at proc %d (in=%d out=%d)", pi, proc, in[proc], out[proc])
			}
		}
	}
}

func TestMGMessageSizesSmall(t *testing.T) {
	p, err := MG(16, Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The paper: "MG consists mainly of reduction to all nodes and
	// broadcast communication of short messages." Verify short messages
	// dominate the message count.
	short := 0
	for _, m := range p.Messages {
		if m.Bytes <= 64 {
			short++
		}
	}
	if short*2 < len(p.Messages) {
		t.Errorf("only %d/%d MG messages are short", short, len(p.Messages))
	}
}

func TestBTSPGridFlows(t *testing.T) {
	for _, name := range []string{"BT", "SP"} {
		p, err := Generate(name, 9, Config{Iterations: 1})
		if err != nil {
			t.Fatal(err)
		}
		// All flows must connect grid neighbors (incl. wraparound) or
		// diagonal neighbors on the 3x3 grid.
		for _, f := range p.Flows() {
			r1, c1 := f.Src/3, f.Src%3
			r2, c2 := f.Dst/3, f.Dst%3
			dr := (r2 - r1 + 3) % 3
			dc := (c2 - c1 + 3) % 3
			if dr == 2 {
				dr = 1
			}
			if dc == 2 {
				dc = 1
			}
			if dr > 1 || dc > 1 || (dr == 0 && dc == 0) {
				t.Errorf("%s: flow %v is not a (wrapped) grid/diagonal neighbor", name, f)
			}
		}
	}
}

func TestSPMoreIterationsSmallerMessages(t *testing.T) {
	bt, _ := Generate("BT", 9, Config{})
	sp, _ := Generate("SP", 9, Config{})
	if len(sp.Phases) <= len(bt.Phases) {
		t.Errorf("SP should have more phases than BT: %d vs %d", len(sp.Phases), len(bt.Phases))
	}
	maxBytes := func(p *model.Pattern) int {
		mx := 0
		for _, m := range p.Messages {
			if m.Bytes > mx {
				mx = m.Bytes
			}
		}
		return mx
	}
	if maxBytes(sp) >= maxBytes(bt) {
		t.Errorf("SP max message (%d) should be smaller than BT's (%d)", maxBytes(sp), maxBytes(bt))
	}
}

func TestFigure1PatternMatchesPaper(t *testing.T) {
	p := Figure1Pattern()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	maxed := model.MaxCliques(model.ContentionPeriods(p))
	if len(maxed) != 3 {
		t.Fatalf("maximum clique set has %d cliques, want 3 (Section 3.3)", len(maxed))
	}
	// Period 3 is the 12-flow transpose clique.
	var period3 model.Clique
	for _, c := range maxed {
		if len(c) == 12 {
			period3 = c
		}
	}
	if period3 == nil {
		t.Fatalf("no 12-flow clique found: %v", maxed)
	}
	for _, pr := range [][2]int{{2, 5}, {3, 9}, {4, 13}, {7, 10}, {8, 14}, {12, 15}} {
		if !period3.Contains(model.F(pr[0]-1, pr[1]-1)) || !period3.Contains(model.F(pr[1]-1, pr[0]-1)) {
			t.Errorf("period 3 missing exchange %v", pr)
		}
	}
	// Period 1 contains (9,10); period 2 contains (9,11) (1-based).
	found1, found2 := false, false
	for _, c := range maxed {
		if len(c) == 12 {
			continue
		}
		if c.Contains(model.F(8, 9)) {
			found1 = true
		}
		if c.Contains(model.F(8, 10)) {
			found2 = true
		}
	}
	if !found1 || !found2 {
		t.Errorf("reduction periods missing flows (9,10)/(9,11): found1=%v found2=%v", found1, found2)
	}
}

func TestFigure1CutCrossings(t *testing.T) {
	p := Figure1Pattern()
	maxed := model.MaxCliques(model.ContentionPeriods(p))
	// Cut 1: nodes 1-8 | 9-16 (0-based: 0-7 | 8-15).
	inA1 := func(n int) bool { return n <= 7 }
	fwd1, bwd1 := crossing(p, inA1)
	if len(fwd1) != 4 || len(bwd1) != 4 {
		t.Fatalf("Cut 1 crossings fwd=%d bwd=%d, want 4/4", len(fwd1), len(bwd1))
	}
	if fc := fastColorRef(maxed, fwd1); fc != 4 {
		t.Errorf("Cut 1 forward fast color = %d, want 4", fc)
	}
	// Cut 2: nodes 1-9 | 10-16 (0-based: 0-8 | 9-15).
	inA2 := func(n int) bool { return n <= 8 }
	fwd2, bwd2 := crossing(p, inA2)
	if len(fwd2)+len(bwd2) != 10 {
		t.Fatalf("Cut 2 crossings = %d, want 10", len(fwd2)+len(bwd2))
	}
	want := map[model.Flow]bool{
		model.F(8, 9): true, model.F(8, 10): true, model.F(7, 13): true,
		model.F(3, 12): true, model.F(6, 9): true,
	}
	for f := range fwd2 {
		if !want[f] {
			t.Errorf("unexpected Cut 2 forward flow %v", f)
		}
	}
	if len(fwd2) != 5 {
		t.Errorf("Cut 2 forward crossings = %d, want 5", len(fwd2))
	}
	if fc := fastColorRef(maxed, fwd2); fc != 3 {
		t.Errorf("Cut 2 forward fast color = %d, want 3", fc)
	}
	if fc := fastColorRef(maxed, bwd2); fc != 3 {
		t.Errorf("Cut 2 backward fast color = %d, want 3", fc)
	}
}

// crossing splits the pattern's flows by a bisection predicate.
func crossing(p *model.Pattern, inA func(int) bool) (fwd, bwd map[model.Flow]bool) {
	fwd = make(map[model.Flow]bool)
	bwd = make(map[model.Flow]bool)
	for _, f := range p.Flows() {
		switch {
		case inA(f.Src) && !inA(f.Dst):
			fwd[f] = true
		case !inA(f.Src) && inA(f.Dst):
			bwd[f] = true
		}
	}
	return fwd, bwd
}

// fastColorRef is the reference Fast_Color of the Appendix: the maximum
// over maximum cliques of the intersection with the pipe's flow set.
func fastColorRef(cliques []model.Clique, flows map[model.Flow]bool) int {
	best := 0
	for _, c := range cliques {
		n := 0
		for _, f := range c {
			if flows[f] {
				n++
			}
		}
		if n > best {
			best = n
		}
	}
	return best
}

func TestFigure1SummarizeSane(t *testing.T) {
	st := trace.Summarize(Figure1Pattern())
	if st.Procs != 16 || st.Messages != 24 || st.Phases != 3 {
		t.Fatalf("unexpected fixture shape: %+v", st)
	}
}

func TestCGGeneratorMatchesFigure1Structure(t *testing.T) {
	// The full CG-16 generator and the Figure 1 fixture must agree on
	// the transpose contention period: the same 12-flow clique.
	gen, err := CG(16, Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	fix := Figure1Pattern()
	genMax := model.MaxCliques(model.ContentionPeriods(gen))
	fixMax := model.MaxCliques(model.ContentionPeriods(fix))
	find12 := func(cs []model.Clique) model.Clique {
		for _, c := range cs {
			if len(c) == 12 {
				return c
			}
		}
		return nil
	}
	g, f := find12(genMax), find12(fixMax)
	if g == nil || f == nil {
		t.Fatalf("transpose clique missing: gen=%v fix=%v", g, f)
	}
	if !g.Equal(f) {
		t.Fatalf("transpose cliques differ:\ngen %v\nfix %v", g, f)
	}
}

func TestGeneratorsScaleToLargerCounts(t *testing.T) {
	for _, tc := range []struct {
		name  string
		procs int
	}{
		{"CG", 32}, {"CG", 64}, {"FFT", 32}, {"MG", 64}, {"BT", 25}, {"SP", 36},
	} {
		p, err := Generate(tc.name, tc.procs, Config{Iterations: 1})
		if err != nil {
			t.Fatalf("%s/%d: %v", tc.name, tc.procs, err)
		}
		if p.Procs != tc.procs || len(p.Messages) == 0 {
			t.Fatalf("%s/%d: bad pattern", tc.name, tc.procs)
		}
	}
}
