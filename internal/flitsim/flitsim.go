// Package flitsim is a flit-level network simulator — the reproduction's
// stand-in for IRFlexSim [20], the simulator the paper's Section 4 uses for
// trace-driven performance evaluation.
//
// It models wormhole-switched networks of input-queued switches with full
// internal crossbars, virtual channels with credit-based flow control,
// pipelined links whose delay equals their floorplanned length in tiles, and
// script-driven end nodes that replay a communication pattern phase by phase
// with fixed send/receive overheads. There are two routers. The table router
// replays a routing.Table, the paper's source-based routing function: the
// synthesized table of a generated network, dimension-order routes on the
// mesh (routing.DORMesh) and the one-switch routes of the crossbar
// (routing.CrossbarTable). True fully adaptive minimal routing (TFAR) serves
// the torus and ring, with a dimension-order escape channel
// (routing.DORNext). Deadlocks — possible under adaptive and irregular
// source routing — are handled as in the paper by timeout detection and
// regressive recovery: the stalled packet is killed, drained, and
// retransmitted from its source.
//
// Parameters follow Section 4.2: 32-bit flits and links at 800 MHz and
// ten-cycle send and receive overheads are constants; 3 virtual channels per
// physical link and link delay equal to tile distance (minimum one cycle) are
// Config defaults.
package flitsim

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/topology"
)

// The Section 4.2 parameters no caller varies.
const (
	// ClockMHz converts cycles to wall time in reports.
	ClockMHz float64 = 800
	// flitBytes is the flit width (32 bits).
	flitBytes = 4
	// sendOverhead and recvOverhead are the per-message software overheads
	// in cycles, à la LogP [23].
	sendOverhead = 10
	recvOverhead = 10
	// traceUnitCycles converts a trace compute-time unit into processor
	// busy cycles: one 64-byte trace unit at one flit per cycle.
	traceUnitCycles = 16
	// energySwitch and energyWire weight the abstract energy model (the
	// power extension sketched in the paper's conclusion): per flit, per
	// switch traversal and per tile of wire crossed (link delay is the
	// length proxy).
	energySwitch = 1.0
	energyWire   = 0.5
)

// Config holds the simulator parameters callers vary. Zero values select
// the paper's defaults.
type Config struct {
	// VCs is the number of virtual channels per physical link (default 3).
	VCs int
	// BufFlits is the buffer capacity of each virtual channel (default 8).
	BufFlits int
	// DeadlockTimeout is the stall length, in cycles, after which a
	// packet is declared deadlocked and regressively recovered. The
	// default (8192) exceeds the drain time of the largest benchmark
	// wormholes so healthy congestion is not misdiagnosed.
	DeadlockTimeout int
	// MaxCycles aborts runaway simulations (default 20,000,000).
	MaxCycles int64
	// LinkDelay gives the pipeline depth of the link between two
	// switches in cycles (its floorplanned length in tiles, minimum 1).
	// Nil means every link has delay 1.
	LinkDelay func(a, b topology.SwitchID) int
	// Obs receives telemetry: the flitsim.* counters (cycles, flits,
	// VC-allocation stalls, deadlock retries and victims) emitted once at
	// the end of each simulation, a span per run, and one event per
	// regressive-recovery kill. Nil disables telemetry at zero cost.
	Obs obs.Observer
}

// Normalized returns the configuration with every zero field replaced by
// its documented Section 4.2 default.
func (c Config) Normalized() Config {
	if c.VCs == 0 {
		c.VCs = 3
	}
	if c.BufFlits == 0 {
		c.BufFlits = 8
	}
	if c.DeadlockTimeout == 0 {
		c.DeadlockTimeout = 8192
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 20_000_000
	}
	return c
}

// Result aggregates a simulation run.
type Result struct {
	// ExecCycles is the total execution time: the cycle at which the
	// last processor finished its script.
	ExecCycles int64
	// CommCycles is the mean, over processors, of cycles spent in
	// communication: send/receive overheads plus blocking on receives.
	CommCycles float64
	// PerProcComm lists each processor's communication cycles.
	PerProcComm []int64
	// Messages is the number of messages delivered.
	Messages int
	// MeanLatency and MaxLatency summarize per-message network latency
	// (send-posted to fully-received, in cycles).
	MeanLatency float64
	MaxLatency  int64
	// FlitHops counts flit-link traversals (network load).
	FlitHops int64
	// Kills counts deadlock recoveries (killed and retransmitted
	// packets); Victims counts the distinct packets ever chosen as a
	// recovery victim, so Kills-Victims is the repeat-kill tail.
	Kills   int
	Victims int
	// VCStalls counts cycles a routed head flit waited for a downstream
	// virtual channel (allocation pressure).
	VCStalls int64
	// PeakLinkUtil is the highest per-link utilization: flits carried
	// divided by total cycles.
	PeakLinkUtil float64
	// EnergyUnits estimates network energy in abstract units: per-flit
	// switch traversals plus wire length crossed (weights 1.0 and 0.5 per
	// tile).
	EnergyUnits float64
}

// ExecTimeNs converts execution cycles to nanoseconds at ClockMHz.
func (r Result) ExecTimeNs() float64 {
	return float64(r.ExecCycles) * 1e3 / ClockMHz
}

// endpointKind tags channel endpoints.
type endpointKind int

const (
	endSwitch endpointKind = iota
	endProc
)

type endpoint struct {
	kind endpointKind
	id   int
}

func swEnd(s topology.SwitchID) endpoint { return endpoint{kind: endSwitch, id: int(s)} }
func procEnd(p int) endpoint             { return endpoint{kind: endProc, id: p} }

func (e endpoint) String() string {
	if e.kind == endProc {
		return fmt.Sprintf("p%d", e.id)
	}
	return fmt.Sprintf("s%d", e.id)
}
