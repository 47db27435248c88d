// Package repro is a full reproduction of Ho & Pinkston, "A Methodology for
// Designing Efficient On-Chip Interconnects on Well-Behaved Communication
// Patterns" (HPCA 2003): a temporal/spatial contention model, a
// recursive-bisection topology synthesizer, a flit-level network simulator,
// a RAW-style tile floorplanner, synthetic NAS-benchmark workloads, and a
// harness that regenerates every figure of the paper's evaluation.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// experiment index, and EXPERIMENTS.md for measured-vs-paper results.
// cmd/paperfigs regenerates each figure:
//
//	go run ./cmd/paperfigs -quick
package repro
