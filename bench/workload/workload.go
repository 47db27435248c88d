// Package workload generates the benchmark's inputs: the four named
// workloads, the set-up (priming) requests each one needs, and the seeded
// stream of timed operations. The program under test only ever sees the
// generated requests; nothing here talks to it.
//
// Determinism contract: the same (workload, seed) yields a byte-identical
// operation stream. A second seed changes which variants are drawn and in
// what order, never the class mix or the priming list, so the golden
// outputs in bench/golden.json hold for every seed.
package workload

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/collective"
	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/trace"
)

// Workload names, in BENCHMARK.json order.
const (
	ColdSynth    = "cold_synth"
	WarmVariants = "warm_variants"
	HitReplay    = "hit_replay"
	PaperCells   = "paper_cells"
)

// Cell is one offline paper-pipeline unit of the paper_cells workload.
type Cell struct {
	// Kind is "nas" (Figure8For), "collective" (CollectiveFor), or
	// "chiplet" (Chiplet).
	Kind     string
	Name     string
	Procs    int
	Clusters int // chiplet only
}

// Key names the cell in golden.json.
func (c Cell) Key() string {
	if c.Kind == "chiplet" {
		return fmt.Sprintf("%s/%d@%d", c.Name, c.Procs, c.Clusters)
	}
	return fmt.Sprintf("%s/%d", c.Name, c.Procs)
}

// Op is one operation: an HTTP request against nocd, or (paper_cells) one
// in-process cell.
type Op struct {
	// Class is the request class; it names the class.<Class>.p50_ms
	// per-layer metric and selects the focus metric.
	Class string
	// Method and Path address the request. A GET path ends in the key of
	// prime Refs[0], which only the priming responses reveal; the runner
	// appends it.
	Method, Path string
	// head and tail concatenate into the request body. Long inline traces
	// are shared between ops through head; tail carries what makes the
	// request unique.
	head []byte
	tail string
	// Golden is the key of the expected design digest in golden.json, or
	// empty when the server's own contract leaves the bytes open.
	Golden string
	// Refs lists the primes this op must hit, by index into Primes: one for
	// a single hit, sixteen for a batch. Nil on miss workloads.
	Refs []int
	// Base is the prime a warm variant was derived from (the design the
	// traced replay seeds from); -1 when the op is not a variant.
	Base int
	// Cell is set on paper_cells ops only.
	Cell *Cell
}

// Body returns the request body (nil for GET and cell ops).
func (o Op) Body() []byte {
	if len(o.head) == 0 && o.tail == "" {
		return nil
	}
	b := make([]byte, 0, len(o.head)+len(o.tail))
	return append(append(b, o.head...), o.tail...)
}

// Spec describes one workload: why it exists, how nocd is started for it,
// and how its latencies are summarized.
type Spec struct {
	Name string
	// Why is the recorded reason the workload exists (BENCHMARK.json "why").
	Why string
	// Clients is the closed-loop client count (one keep-alive connection
	// each); 0 means the workload runs in-process.
	Clients int
	// Server is the nocd configuration the workload runs against.
	Server Server
	// DataDir gives nocd a persistent store and restarts it over the same
	// directory after priming.
	DataDir bool
	// TailPct is the frozen tail percentile of op_tail_ms: the highest one
	// that keeps at least ten samples beyond it and does not sit on the
	// boundary between two request classes.
	TailPct float64
	// Focus is the class prefix focus_p50_ms is taken over: the requests the
	// workload exists to expose.
	Focus string
	// Classes lists every request class the workload issues.
	Classes []string
	// TraceOps is the length of the fixed stream prefix the traced
	// in-process replay covers.
	TraceOps int
}

// Server is a nocd configuration spelled out in full. The child process
// gets every field as a flag and the traced in-process replay builds its
// serve.Config from the same fields, so the two run the same server and
// neither follows a default that later moves in cmd/nocd.
type Server struct {
	CacheSize int
	// WarmThreshold: 0 selects the server's default distance ceiling,
	// negative disables warm starts.
	WarmThreshold   float64
	Timeout         time.Duration
	MaxInFlight     int
	MaxQueue        int
	BulkMaxInFlight int
	MaxDegree       int
	MaxProcs        int
	Restarts        int
	Seed            int64
	// Workers: 0 sizes the restart pool to GOMAXPROCS.
	Workers int
}

// nocd is the configuration nocd's flag defaults gave when the benchmark was
// defined, with the two values the workloads vary.
func nocd(cacheSize int, warmThreshold float64) Server {
	return Server{
		CacheSize: cacheSize, WarmThreshold: warmThreshold, Timeout: 2 * time.Minute,
		MaxInFlight: 2, MaxQueue: 64, BulkMaxInFlight: 1,
		MaxDegree: 5, MaxProcs: 4, Restarts: 4, Seed: 1, Workers: 0,
	}
}

// Flags renders the configuration as nocd's command line (without -addr and
// -data-dir, which belong to the run).
func (s Server) Flags() []string {
	return []string{
		"-cache-size", strconv.Itoa(s.CacheSize),
		"-warm-threshold", strconv.FormatFloat(s.WarmThreshold, 'g', -1, 64),
		"-timeout", s.Timeout.String(),
		"-max-inflight", strconv.Itoa(s.MaxInFlight),
		"-max-queue", strconv.Itoa(s.MaxQueue),
		"-bulk-max-inflight", strconv.Itoa(s.BulkMaxInFlight),
		"-maxdegree", strconv.Itoa(s.MaxDegree),
		"-maxprocs", strconv.Itoa(s.MaxProcs),
		"-restarts", strconv.Itoa(s.Restarts),
		"-seed", strconv.FormatInt(s.Seed, 10),
		"-workers", strconv.Itoa(s.Workers),
	}
}

// Specs returns the four workloads in BENCHMARK.json order.
func Specs() []Spec {
	return []Spec{
		{
			Name: ColdSynth,
			Why: "Never-repeated keys over eight flat and three hier classes, warm starts off: synth and hier do " +
				"over 95% of the work, serve/trace/model almost none; one client on two cores shows restart fan-out.",
			Clients:  1,
			Server:   nocd(128, -1),
			TailPct:  95,
			Focus:    "cold.hier-",
			Classes:  classNames(coldClasses),
			TraceOps: 2 * len(coldClasses),
		},
		{
			Name: WarmVariants,
			Why: "Every op is a unique structural variant of a primed base (miss/seeded): decode, key, fingerprint, " +
				"ContentionPeriods/MaxCliques, nearest scan, 1-3 ms seeded synth, store write; model and trace lead.",
			Clients:  2,
			Server:   nocd(128, 0),
			TailPct:  99,
			Focus:    "warm.jitter",
			Classes:  []string{"warm.byname", "warm.inline", "warm.jitter"},
			TraceOps: 120,
		},
		{
			Name: HitReplay,
			Why: "Zipf repeats over 96 designs primed to disk and re-read after a restart, 32-entry memory cache: " +
				"synth does nothing; cost is pattern regeneration, encode and SHA-256, memory vs disk Get, body write.",
			Clients:  2,
			Server:   nocd(32, 0),
			DataDir:  true,
			TailPct:  99,
			Focus:    "hit.large",
			Classes:  []string{"hit.small", "hit.large", "hit.inline", "hit.get", "hit.batch"},
			TraceOps: 400,
		},
		{
			Name: PaperCells,
			Why: "Offline paper pipeline in-process (generate, Synthesize, floorplan.Place, four flit-level replays, " +
				"one chiplet cell): the only workload where floorplan and flitsim dominate and serve does nothing.",
			TailPct:  90,
			Focus:    "cell.nas-large",
			Classes:  []string{"cell.nas-small", "cell.nas-large", "cell.collective", "cell.chiplet"},
			TraceOps: 15,
		},
	}
}

// Lookup returns the named workload.
func Lookup(name string) (Spec, bool) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// AllClasses lists every request class of every workload, in Specs order.
func AllClasses() []string {
	var out []string
	for _, s := range Specs() {
		out = append(out, s.Classes...)
	}
	return out
}

// byName is a by-name request template. Every pattern here has at most 64
// flows: nocd at this commit can crash (synth state-pool bitset reuse) when
// a pattern with more than 64 flows follows smaller ones in one process, so
// FFT/16, SP/16 and BT/16 stay out of the server workloads until that is
// fixed. See bench/README.md.
type byName struct {
	class     string
	benchmark string
	procs     int
	clusters  string // non-empty: hier request
}

func (b byName) body(extra string) string {
	s := fmt.Sprintf(`{"benchmark":%q,"procs":%d`, b.benchmark, b.procs)
	if b.clusters != "" {
		s += fmt.Sprintf(`,"hier":{"clusters":%q}`, b.clusters)
	}
	return s + extra + "}"
}

var coldClasses = []byName{
	{"cold.cg16", "CG", 16, ""},
	{"cold.fft8", "FFT", 8, ""},
	{"cold.mg16", "MG", 16, ""},
	{"cold.sp9", "SP", 9, ""},
	{"cold.bt9", "BT", 9, ""},
	{"cold.tree32", "tree-broadcast", 32, ""},
	{"cold.scatter64", "reduce-scatter", 64, ""},
	{"cold.ring64", "ring-allreduce", 64, ""},
	{"cold.hier-cg16", "CG", 16, "4"},
	{"cold.hier-fft16", "FFT", 16, "4"},
	{"cold.hier-ring64", "ring-allreduce", 64, "8"},
}

// coldSet returns the cold_synth classes; the miniature keeps the four
// under 60 ms.
func coldSet(mini bool) []byName {
	if mini {
		return []byName{coldClasses[1], coldClasses[4], coldClasses[5], coldClasses[8]}
	}
	return coldClasses
}

func classNames(cs []byName) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.class
	}
	return out
}

// ColdPool is the number of synthesis seeds per cold_synth class. A run
// walks the pool once, in a seed-chosen rotation, so no key ever repeats
// inside one nocd lifetime and every (class, seed) design has a golden
// digest; the stream ends when the pool does.
const ColdPool = 64

// nasBases are the small patterns the warm and hit workloads vary.
var nasBases = []byName{
	{"", "CG", 16, ""},
	{"", "MG", 16, ""},
	{"", "BT", 9, ""},
	{"", "SP", 9, ""},
	{"", "FFT", 8, ""},
}

// inlineTrace renders a generated pattern as the JSON prefix of an
// inline-trace request: `{"trace":"noctrace v1\n..."`. The caller appends
// the fields that make the request unique and the closing brace.
func inlineTrace(p *model.Pattern) []byte {
	var sb strings.Builder
	// Encode into a strings.Builder cannot fail.
	_ = trace.Encode(&sb, p)
	q, _ := json.Marshal(sb.String())
	return append([]byte(`{"trace":`), q...)
}

func mustNAS(name string, procs int, cfg nas.Config) *model.Pattern {
	p, err := nas.Generate(name, procs, cfg)
	if err != nil {
		panic(fmt.Sprintf("workload: generating %s/%d: %v", name, procs, err))
	}
	return p
}

// jitterTrace is the long non-phase-aligned class: CG/16 over about 40
// iterations with every processor skewed by up to half a time unit (1,760
// messages, 59 contention periods), the input on which ContentionPeriods is
// expensive. Variants differ in length, not in skew: a differently skewed
// trace is structurally too far from any cached design to be seeded.
func jitterTrace(variant int, mini bool) []byte {
	iters := 40 - variant
	if mini {
		iters = 4 - variant
	}
	p := mustNAS("CG", 16, nas.Config{Iterations: iters})
	return inlineTrace(trace.ApplySkew(p, 0.5, 1))
}

// Primes returns the workload's set-up requests, in the order they are
// sent (sequentially, by one client). The list does not depend on the seed.
// mini shrinks it for the unit-test miniature; golden keys stay valid.
func (s Spec) Primes(mini bool) []Op {
	var ops []Op
	add := func(class, golden string, head []byte, tail string) {
		ops = append(ops, Op{Class: class, Method: "POST", Path: "/v1/design", head: head, tail: tail,
			Golden: golden, Base: -1})
	}
	switch s.Name {
	case ColdSynth:
		// One warm-up request per class, on a seed outside the pool, so lazy
		// set-up in nocd is done before the timed window opens.
		for _, c := range coldSet(mini) {
			add("prime", fmt.Sprintf("%s/%d", c.class, ColdPool+1), nil, c.body(fmt.Sprintf(`,"seed":%d`, ColdPool+1)))
		}
	case WarmVariants:
		bases := nasBases
		if mini {
			bases = bases[2:] // BT/9, SP/9, FFT/8: the cheap ones
		}
		for _, b := range bases {
			add("prime", fmt.Sprintf("warm/%s-%d", b.benchmark, b.procs), nil, b.body(""))
		}
		add("prime", "", jitterTrace(0, mini), "}")
	case HitReplay:
		bases := nasBases
		nInline, nSmall := 12, 78
		if mini {
			bases, nInline, nSmall = bases[2:], 3, 9
		}
		for _, b := range bases {
			add("hit.small", fmt.Sprintf("hit/%s-%d", b.benchmark, b.procs), nil, b.body(""))
		}
		if !mini {
			// The one large design: ring-allreduce/64 encodes to 988 KB, so a
			// hit on it regenerates, encodes and hashes that much before the
			// cache is consulted. Its half-size twins (all-gather,
			// reduce-scatter) would split the class into two latency modes.
			add("hit.large", "hit/ring-allreduce-64", nil, byName{benchmark: "ring-allreduce", procs: 64}.body(""))
		}
		scales := []float64{0.25, 0.5, 2, 4}
		// Variants are structural twins of a base, so the server seeds them
		// from it and replays its switch tree: their design digest is the
		// base's.
		baseKey := func(b byName) string { return fmt.Sprintf("hit/%s-%d", b.benchmark, b.procs) }
		for i := 0; i < nInline; i++ {
			b := bases[i%len(bases)]
			p := mustNAS(b.benchmark, b.procs, nas.Config{ByteScale: scales[i%len(scales)], Iterations: 2 + i/len(scales)})
			add("hit.inline", baseKey(b), inlineTrace(p), "}")
		}
		for i := 0; i < nSmall; i++ {
			b := bases[i%len(bases)]
			add("hit.small", baseKey(b), nil,
				b.body(fmt.Sprintf(`,"iterations":%d,"seed":%d`, 2+(i/len(bases))%4, 2+i)))
		}
	}
	return ops
}

// Stream yields a workload's timed operations in order.
type Stream struct {
	next func() (Op, bool)
	// period is the length of one cycle (cold_synth) or sweep (paper_cells);
	// 1 when every operation stands alone.
	period, issued int
}

// Next returns the next operation; ok is false once a finite stream
// (cold_synth's seed pool) is exhausted.
func (s *Stream) Next() (Op, bool) {
	op, ok := s.next()
	if ok {
		s.issued++
	}
	return op, ok
}

// AtBoundary reports whether the next operation starts a new cycle or sweep.
// Runs end only there, so every run times the same class mix.
func (s *Stream) AtBoundary() bool { return s.issued%s.period == 0 }

// Take drains up to n operations.
func (s *Stream) Take(n int) []Op {
	var ops []Op
	for len(ops) < n {
		op, ok := s.Next()
		if !ok {
			break
		}
		ops = append(ops, op)
	}
	return ops
}

// NewStream builds the seeded operation stream of a workload. mini selects
// the unit-test miniature: the same classes over smaller inputs.
func (s Spec) NewStream(seed int64, mini bool) *Stream {
	rng := rand.New(rand.NewSource(seed))
	switch s.Name {
	case ColdSynth:
		return coldStream(rng, mini)
	case WarmVariants:
		return warmStream(rng, s.Primes(mini), mini)
	case HitReplay:
		return hitStream(rng, s.Primes(mini))
	default:
		return cellStream(rng, mini)
	}
}

// coldStream walks the seed pool cycle by cycle: each cycle issues every
// class once, in a shuffled order, with the cycle's synthesis seed.
func coldStream(rng *rand.Rand, mini bool) *Stream {
	classes, pool := coldSet(mini), ColdPool
	if mini {
		pool = 1
	}
	offset := rng.Intn(ColdPool)
	cycle, pos := 0, 0
	order := rng.Perm(len(classes))
	return &Stream{period: len(classes), next: func() (Op, bool) {
		if pos == len(classes) {
			cycle, pos = cycle+1, 0
			order = rng.Perm(len(classes))
		}
		if cycle >= pool {
			return Op{}, false
		}
		c := classes[order[pos]]
		pos++
		synthSeed := 1 + (offset+cycle)%ColdPool
		return Op{Class: c.class, Method: "POST", Path: "/v1/design",
			tail:   c.body(fmt.Sprintf(`,"seed":%d`, synthSeed)),
			Golden: fmt.Sprintf("%s/%d", c.class, synthSeed), Base: -1}, true
	}}
}

// warmStream draws unique structural variants of the primed bases: 40%
// by-name (iterations varied), 40% inline traces at varied byte scale, 20%
// long jittered traces. Uniqueness comes from the request's synthesis seed,
// which is part of the cache key; the trace texts come from a small
// pre-rendered pool so generating load costs the load generator nothing.
func warmStream(rng *rand.Rand, primes []Op, mini bool) *Stream {
	nBases := len(primes) - 1 // the last prime is the jitter base
	bases := nasBases[len(nasBases)-nBases:]
	type text struct {
		head []byte
		base int
	}
	var inline, jitter []text
	for bi, b := range bases {
		for _, scale := range []float64{0.25, 0.5, 2, 4} {
			for _, iters := range []int{2, 3} {
				if mini && (scale != 2 || iters != 2) {
					continue
				}
				p := mustNAS(b.benchmark, b.procs, nas.Config{ByteScale: scale, Iterations: iters})
				inline = append(inline, text{inlineTrace(p), bi})
			}
		}
	}
	nJitter := 8
	if mini {
		nJitter = 2
	}
	for k := 1; k <= nJitter; k++ {
		jitter = append(jitter, text{jitterTrace(k, mini), nBases})
	}
	n := 0
	return &Stream{period: 1, next: func() (Op, bool) {
		n++
		uniq := fmt.Sprintf(`,"seed":%d}`, 1000+n)
		op := Op{Method: "POST", Path: "/v1/design"}
		switch r := rng.Intn(10); {
		case r < 4:
			bi := rng.Intn(nBases)
			b := bases[bi]
			op.Class, op.Base = "warm.byname", bi
			op.tail = b.body(fmt.Sprintf(`,"iterations":%d,"seed":%d`, 2+rng.Intn(6), 1000+n))
			op.Golden = primes[bi].Golden
		case r < 8:
			t := inline[rng.Intn(len(inline))]
			op.Class, op.Base = "warm.inline", t.base
			op.head, op.tail = t.head, uniq
			op.Golden = primes[t.base].Golden
		default:
			t := jitter[rng.Intn(len(jitter))]
			op.Class, op.Base = "warm.jitter", t.base
			op.head, op.tail = t.head, uniq
		}
		return op, true
	}}
}

// hitStream replays Zipf-distributed repeats over the primed keys: 70%
// small by-name, 3% the large by-name design, 12% inline trace, 10% GET by
// key, 5% batches of sixteen small requests.
func hitStream(rng *rand.Rand, primes []Op) *Stream {
	byClass := map[string][]int{}
	for i, p := range primes {
		byClass[p.Class] = append(byClass[p.Class], i)
	}
	// Each class gets its own Zipf sampler over a fixed popularity order —
	// the priming order — so every seed replays the same hot set and only
	// the draw sequence differs.
	type picker struct {
		keys []int
		z    *rand.Zipf
	}
	pick := map[string]*picker{}
	all := make([]int, len(primes))
	for i := range all {
		all[i] = i
	}
	byClass["any"] = all
	for _, class := range []string{"hit.small", "hit.large", "hit.inline", "any"} {
		keys := append([]int(nil), byClass[class]...)
		if len(keys) == 0 {
			continue // the miniature primes no large designs
		}
		pick[class] = &picker{keys: keys, z: rand.NewZipf(rng, 1.2, 1, uint64(len(keys)-1))}
	}
	draw := func(class string) int {
		p := pick[class]
		return p.keys[p.z.Uint64()]
	}
	return &Stream{period: 1, next: func() (Op, bool) {
		r := rng.Intn(100)
		switch {
		case r < 5:
			op := Op{Class: "hit.batch", Method: "POST", Path: "/v1/designs", Base: -1}
			var sb strings.Builder
			sb.WriteByte('[')
			for i := 0; i < 16; i++ {
				ref := draw("hit.small")
				op.Refs = append(op.Refs, ref)
				if i > 0 {
					sb.WriteByte(',')
				}
				sb.Write(primes[ref].Body())
			}
			sb.WriteByte(']')
			op.tail = sb.String()
			return op, true
		case r < 15:
			ref := draw("any")
			return Op{Class: "hit.get", Method: "GET", Path: "/v1/design/", Refs: []int{ref}, Base: -1}, true
		}
		class := "hit.small"
		if r < 18 && pick["hit.large"] != nil {
			class = "hit.large"
		} else if r < 30 {
			class = "hit.inline"
		}
		ref := draw(class)
		op := primes[ref]
		op.Refs = []int{ref}
		return op, true
	}}
}

// Cells returns one sweep of the offline paper pipeline: Figure 8 for the
// five NAS benchmarks at the small and large sizes, the Collectives(16)
// rows, and the Chiplet("CG", 16, 4) cell.
func Cells(mini bool) []Op {
	var ops []Op
	add := func(class string, c Cell) {
		ops = append(ops, Op{Class: class, Base: -1, Cell: &c})
	}
	for _, name := range nas.Names() {
		small, large := nas.PaperProcs(name)
		add("cell.nas-small", Cell{Kind: "nas", Name: name, Procs: small})
		if !mini {
			add("cell.nas-large", Cell{Kind: "nas", Name: name, Procs: large})
		}
	}
	nodes := 16
	if mini {
		nodes = 8
	}
	for _, name := range collective.Names() {
		add("cell.collective", Cell{Kind: "collective", Name: name, Procs: nodes})
	}
	if mini {
		// The miniature keeps the small NAS cells under 70 ms plus one
		// collective, and an 8-processor chiplet cell.
		ops = []Op{ops[1], ops[2], ops[3], ops[5]}
		add("cell.nas-large", Cell{Kind: "nas", Name: "CG", Procs: 16})
		add("cell.chiplet", Cell{Kind: "chiplet", Name: "CG", Procs: 8, Clusters: 2})
		return ops
	}
	add("cell.chiplet", Cell{Kind: "chiplet", Name: "CG", Procs: 16, Clusters: 4})
	return ops
}

// cellStream repeats the sweep forever. The pipeline itself is
// deterministic, so the seed only picks the cell the first sweep starts at.
func cellStream(rng *rand.Rand, mini bool) *Stream {
	cells := Cells(mini)
	pos := rng.Intn(len(cells))
	return &Stream{period: len(cells), next: func() (Op, bool) {
		op := cells[pos%len(cells)]
		pos++
		return op, true
	}}
}
