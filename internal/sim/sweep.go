package sim

import (
	"fmt"

	"wormnoc/internal/noc"
	"wormnoc/internal/traffic"
)

// SweepResult aggregates a worst-case phasing search.
type SweepResult struct {
	// Worst[i] is the maximum observed latency of flow i over all runs of
	// the sweep (-1 if the flow never completed a packet in any run).
	Worst []noc.Cycles
	// WorstOffset[i] is the lowest swept offset at which Worst[i] was
	// observed (0 if the flow never completed a packet).
	WorstOffset []noc.Cycles
	// Runs counts the simulations performed.
	Runs int
}

// SweepOffsets searches for worst-case latencies by varying the release
// offset of one flow while keeping all other offsets from base.Offsets
// (zero when nil). The offset of flow flowIdx takes every value
// 0, step, 2·step, … < maxOffset; each setting is simulated for
// base.Duration cycles and the per-flow maxima are aggregated.
//
// This reproduces the paper's simulation methodology for Table II: the
// MPB effect only manifests when the interfering flow's releases are "not
// in phase" with the others, so the phasing must be searched. The
// settings are one Phasings batch on GOMAXPROCS warm engines, and the
// result does not depend on the worker count.
func SweepOffsets(sys *traffic.System, base Config, flowIdx int, maxOffset, step noc.Cycles) (*SweepResult, error) {
	if flowIdx < 0 || flowIdx >= sys.NumFlows() {
		return nil, fmt.Errorf("sim: sweep flow index %d out of range (%d flows)", flowIdx, sys.NumFlows())
	}
	if step < 1 || maxOffset < 1 {
		return nil, fmt.Errorf("sim: sweep needs step >= 1 and maxOffset >= 1, got %d and %d", step, maxOffset)
	}
	// (maxOffset-1)/step + 1 settings, the last at most maxOffset-1: no
	// offset overflows.
	runs := int((maxOffset-1)/step + 1)
	fold, err := NewPhasings(sys, 0).Eval(base, runs, func(i int, off []noc.Cycles) {
		off[flowIdx] = noc.Cycles(i) * step
	})
	if err != nil {
		return nil, err
	}
	out := &SweepResult{
		Worst:       fold.Worst, // the evaluator dies here, so its fold can be kept
		WorstOffset: make([]noc.Cycles, len(fold.At)),
		Runs:        fold.Runs,
	}
	for f, at := range fold.At {
		if at >= 0 {
			out.WorstOffset[f] = noc.Cycles(at) * step
		}
	}
	return out, nil
}
