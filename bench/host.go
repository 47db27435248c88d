package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// The sandbox this benchmark runs in changes speed under it: with no change
// to the code, a second set of ten runs per workload read 15-38% slower than
// the first on every timing, CPU time included (see README.md, "Noise"),
// which no statistic inside one run can average away and which fails the
// acceptance procedure by itself. So every run measures the host while it
// measures the program: between segments of the timed window, with the load
// paused, it times a fixed reference computation, and reports the timing
// metrics at the reference host's speed, with the measured number printed
// beside each. The computation uses only the standard library and a fixed
// input, so no change to the repository can alter it, and a parent and a
// change measured on one host are scaled alike.

// hostNominalMs is the reference computation's time on the reference host:
// this sandbox in a quiet minute. Only the ratio to it matters.
const hostNominalMs = 8.5

// hostNode is the document the reference computation decodes and encodes.
type hostNode struct {
	ID    int         `json:"id"`
	Name  string      `json:"name"`
	Links []int       `json:"links"`
	W     []float64   `json:"w"`
	Kids  []*hostNode `json:"kids,omitempty"`
}

func hostTree(depth int, id *int) *hostNode {
	*id++
	n := &hostNode{ID: *id, Name: fmt.Sprintf("switch-%d", *id)}
	for i := 0; i < 6; i++ {
		n.Links = append(n.Links, (*id*7+i*13)%997)
		n.W = append(n.W, float64(*id*i)/3)
	}
	if depth > 0 {
		for i := 0; i < 4; i++ {
			n.Kids = append(n.Kids, hostTree(depth-1, id))
		}
	}
	return n
}

var hostDoc = func() []byte {
	id := 0
	// Marshal of this tree cannot fail.
	doc, _ := json.Marshal(hostTree(4, &id))
	return doc
}()

// hostSink keeps the compiler from discarding the reference computation.
// hostMap and hostRecs are its working memory, reused from call to call so
// that it allocates little and its time does not depend on where the
// process's garbage collector happens to stand. Probes never overlap.
var (
	hostSink uint64
	hostMap  = make(map[uint64]uint64, 30011)
	hostRecs = make([]hostRec, 0, 20000)
)

type hostRec struct{ k, v uint64 }

// hostKernel is the reference computation: what a Go server does to memory —
// decode and encode a JSON document, fill and read a map, sort records, hash
// a buffer — on one goroutine.
func hostKernel() {
	var n hostNode
	_ = json.Unmarshal(hostDoc, &n) // fixed valid input
	out, _ := json.Marshal(&n)
	clear(hostMap)
	recs := hostRecs[:0]
	x := uint64(88172645463325252)
	for i := 0; i < cap(recs); i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		hostMap[x%30011] += x
		recs = append(recs, hostRec{x % 30011, x})
	}
	sort.Slice(recs, func(i, j int) bool {
		return recs[i].k < recs[j].k || recs[i].k == recs[j].k && recs[i].v < recs[j].v
	})
	var t uint64
	for _, r := range recs {
		t += hostMap[r.k]
	}
	h := sha256.Sum256(out)
	hostSink += t + uint64(h[0])
}

// hostMeter collects the reference timings of one phase of a run: the wall
// each reference computation took, and the CPU time its thread was charged.
// The two differ when the hypervisor takes the processor away: wall grows,
// CPU time does not, and the same holds for the program under test, so wall
// metrics are scaled by the one and CPU metrics by the other.
type hostMeter struct {
	wallMs, cpuMs []float64
	// spent is the wall the probes took, which the phase's own wall and (for
	// the in-process workload) CPU exclude.
	spent time.Duration
}

// threadCPU is the CPU time charged to the calling thread so far.
func threadCPU() time.Duration {
	const rusageThread = 1 // RUSAGE_THREAD, which package syscall does not name
	var ru syscall.Rusage
	// Getrusage cannot fail with a valid who and a valid pointer.
	_ = syscall.Getrusage(rusageThread, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// probe times the reference computation three times. Call it with the load
// paused.
func (m *hostMeter) probe() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := 0; i < 3; i++ {
		t0, c0 := time.Now(), threadCPU()
		hostKernel()
		d, c := time.Since(t0), threadCPU()-c0
		m.wallMs = append(m.wallMs, float64(d.Nanoseconds())/1e6)
		m.cpuMs = append(m.cpuMs, float64(c.Nanoseconds())/1e6)
		m.spent += d
	}
}

// hostSpeed is the host's speed over the probes relative to the reference
// host: below one when the host ran slow. The mean, not the median: a burst
// that slows the probes slows the operations around them too.
func hostSpeed(ms []float64) float64 {
	if len(ms) == 0 {
		return 1
	}
	return hostNominalMs / (sum(ms) / float64(len(ms)))
}

func (m *hostMeter) speed() float64    { return hostSpeed(m.wallMs) }
func (m *hostMeter) cpuSpeed() float64 { return hostSpeed(m.cpuMs) }
