package core

import (
	"fmt"
	"strings"

	"wormnoc/internal/noc"
	"wormnoc/internal/traffic"
)

// DeltaKind enumerates the typed edits the incremental engine accepts.
type DeltaKind int

const (
	// DeltaPeriod sets flow Flow's period to Cycles.
	DeltaPeriod DeltaKind = iota
	// DeltaDeadline sets flow Flow's deadline to Cycles.
	DeltaDeadline
	// DeltaJitter sets flow Flow's release jitter to Cycles.
	DeltaJitter
	// DeltaLength sets flow Flow's payload length to Length flits.
	DeltaLength
	// DeltaBufDepth sets the platform's per-VC buffer depth to BufDepth.
	DeltaBufDepth
	// DeltaPrioritySwap exchanges the priorities of flows Flow and Other.
	DeltaPrioritySwap
	// DeltaMapping re-maps flow Flow to the endpoints Src → Dst.
	DeltaMapping
	// DeltaAddFlow appends NewFlow to the flow set (it receives the next
	// flow index).
	DeltaAddFlow
	// DeltaRemoveFlow removes flow Flow; flows above it shift down by one.
	DeltaRemoveFlow
)

// deltaKindNames maps kinds to their canonical wire names, used by the
// HTTP service and the cache-key canonicaliser. Order matches the enum.
var deltaKindNames = [...]string{
	DeltaPeriod:       "period",
	DeltaDeadline:     "deadline",
	DeltaJitter:       "jitter",
	DeltaLength:       "length",
	DeltaBufDepth:     "buf",
	DeltaPrioritySwap: "swap-priority",
	DeltaMapping:      "remap",
	DeltaAddFlow:      "add-flow",
	DeltaRemoveFlow:   "remove-flow",
}

// String returns the kind's canonical wire name, the inverse of
// ParseDeltaKind.
func (k DeltaKind) String() string {
	if k >= 0 && int(k) < len(deltaKindNames) {
		return deltaKindNames[k]
	}
	return fmt.Sprintf("DeltaKind(%d)", int(k))
}

// ParseDeltaKind maps a wire name ("period", "swap-priority", …) to its
// kind — the single parser shared by the HTTP service and the CLIs.
func ParseDeltaKind(s string) (DeltaKind, error) {
	want := strings.ToLower(strings.TrimSpace(s))
	for k, name := range deltaKindNames {
		if name == want {
			return DeltaKind(k), nil
		}
	}
	return 0, fmt.Errorf("core: unknown delta kind %q (want one of %s)",
		s, strings.Join(deltaKindNames[:], ", "))
}

// Delta is one typed edit of a system. Only the fields its Kind names
// are meaningful; the rest stay zero.
type Delta struct {
	// Kind selects which edit this delta encodes and which of the
	// remaining fields are meaningful.
	Kind DeltaKind
	// Flow is the edited flow's index (the first flow of a priority
	// swap). Unused by DeltaBufDepth and DeltaAddFlow.
	Flow int
	// Other is the second flow of a DeltaPrioritySwap.
	Other int
	// Cycles is the new period, deadline, or jitter value.
	Cycles noc.Cycles
	// Length is the new payload length of a DeltaLength.
	Length int
	// BufDepth is the new platform buffer depth of a DeltaBufDepth.
	BufDepth int
	// Src and Dst are the new endpoints of a DeltaMapping.
	Src, Dst noc.NodeID
	// NewFlow is the flow appended by a DeltaAddFlow.
	NewFlow traffic.Flow
}

// String renders the delta compactly for logs and violation reports.
func (d Delta) String() string {
	switch d.Kind {
	case DeltaPeriod, DeltaDeadline, DeltaJitter:
		return fmt.Sprintf("%s(flow %d → %d)", d.Kind, d.Flow, int64(d.Cycles))
	case DeltaLength:
		return fmt.Sprintf("%s(flow %d → %d)", d.Kind, d.Flow, d.Length)
	case DeltaBufDepth:
		return fmt.Sprintf("%s(→ %d)", d.Kind, d.BufDepth)
	case DeltaPrioritySwap:
		return fmt.Sprintf("%s(flows %d ↔ %d)", d.Kind, d.Flow, d.Other)
	case DeltaMapping:
		return fmt.Sprintf("%s(flow %d → %d→%d)", d.Kind, d.Flow, int(d.Src), int(d.Dst))
	case DeltaAddFlow:
		return fmt.Sprintf("%s(%v)", d.Kind, d.NewFlow)
	case DeltaRemoveFlow:
		return fmt.Sprintf("%s(flow %d)", d.Kind, d.Flow)
	default:
		return d.Kind.String()
	}
}

// Validate checks the delta against a flow set of n flows. Constraints
// that need the whole system (deadline ≤ period, unique priorities,
// routable endpoints) are left to the System rebuild, which re-validates
// everything.
func (d Delta) Validate(n int) error {
	needFlow := func() error {
		if d.Flow < 0 || d.Flow >= n {
			return fmt.Errorf("core: delta %s: flow index %d out of range (%d flows)", d.Kind, d.Flow, n)
		}
		return nil
	}
	switch d.Kind {
	case DeltaPeriod, DeltaDeadline:
		if d.Cycles < 1 {
			return fmt.Errorf("core: delta %s: value must be >= 1 cycle, got %d", d.Kind, int64(d.Cycles))
		}
		return needFlow()
	case DeltaJitter:
		if d.Cycles < 0 {
			return fmt.Errorf("core: delta %s: value must be >= 0, got %d", d.Kind, int64(d.Cycles))
		}
		return needFlow()
	case DeltaLength:
		if d.Length < 1 {
			return fmt.Errorf("core: delta %s: length must be >= 1 flit, got %d", d.Kind, d.Length)
		}
		return needFlow()
	case DeltaBufDepth:
		if d.BufDepth < 1 {
			return fmt.Errorf("core: delta %s: buffer depth must be >= 1, got %d", d.Kind, d.BufDepth)
		}
		return nil
	case DeltaPrioritySwap:
		if err := needFlow(); err != nil {
			return err
		}
		if d.Other < 0 || d.Other >= n {
			return fmt.Errorf("core: delta %s: flow index %d out of range (%d flows)", d.Kind, d.Other, n)
		}
		if d.Other == d.Flow {
			return fmt.Errorf("core: delta %s: cannot swap flow %d with itself", d.Kind, d.Flow)
		}
		return nil
	case DeltaMapping:
		if d.Src == d.Dst {
			return fmt.Errorf("core: delta %s: source and destination are both node %d", d.Kind, int(d.Src))
		}
		return needFlow()
	case DeltaAddFlow:
		return d.NewFlow.Validate()
	case DeltaRemoveFlow:
		return needFlow()
	default:
		return fmt.Errorf("core: unknown delta kind %d", int(d.Kind))
	}
}

// structural reports whether the delta changes the interference graph
// (routes, priorities, or the flow set itself) rather than only flow or
// platform parameters. Structural edits invalidate pair ranks and rule
// out warm-starting.
func (d Delta) structural() bool {
	switch d.Kind {
	case DeltaPrioritySwap, DeltaMapping, DeltaAddFlow, DeltaRemoveFlow:
		return true
	}
	return false
}

// grows reports whether applying d to sys can only enlarge (never
// shrink) any flow's interference under the analysis selected by opt —
// the precondition for seeding the fixed points from the previous
// converged bounds (see analyzeFlow's monotone-restart argument).
// The classification is per method:
//
//   - a period decrease, jitter increase, or payload increase enlarges
//     every term it enters, under every method;
//   - a deadline change never enters the iteration function at all (it
//     only classifies the converged bound), so the previous bound is
//     still the exact least fixed point;
//   - a platform buffer-depth change is invisible to SB and XLWX (and to
//     any run whose Options.BufDepth override pins the depth): deeper
//     buffers enlarge IBN's buffered-interference cap bi_ij (Eq. 6) but
//     shrink SLA's per-hit cost, so the growth direction flips between
//     the two;
//   - structural edits can do both at once and never qualify.
func (d Delta) grows(sys *traffic.System, opt Options) bool {
	switch d.Kind {
	case DeltaPeriod:
		return d.Cycles <= sys.Flow(d.Flow).Period
	case DeltaDeadline:
		return true
	case DeltaJitter:
		return d.Cycles >= sys.Flow(d.Flow).Jitter
	case DeltaLength:
		return d.Length >= sys.Flow(d.Flow).Length
	case DeltaBufDepth:
		if !bufSensitive(opt) {
			return true // no term changes at all
		}
		old := sys.Topology().Config().BufDepth
		if opt.Method == SLA {
			return d.BufDepth <= old
		}
		return d.BufDepth >= old
	default:
		return false
	}
}

// bufSensitive reports whether a run configured by opt reads the
// platform's buffer depth: SB and XLWX never do, and an explicit
// Options.BufDepth override shadows the platform value for IBN and SLA.
func bufSensitive(opt Options) bool {
	if opt.Method == SB || opt.Method == XLWX {
		return false
	}
	return opt.BufDepth <= 0
}

// ApplyDelta materialises the edited system. The input system is not
// modified; an invalid edit (out-of-range index, deadline above period,
// unroutable mapping, duplicate priority, …) returns an error and no
// system.
func ApplyDelta(sys *traffic.System, d Delta) (*traffic.System, error) {
	if err := d.Validate(sys.NumFlows()); err != nil {
		return nil, err
	}
	if d.Kind == DeltaBufDepth {
		cfg := sys.Topology().Config()
		cfg.BufDepth = d.BufDepth
		return sys.WithConfig(cfg)
	}
	flows := append([]traffic.Flow(nil), sys.Flows()...)
	switch d.Kind {
	case DeltaPeriod:
		flows[d.Flow].Period = d.Cycles
	case DeltaDeadline:
		flows[d.Flow].Deadline = d.Cycles
	case DeltaJitter:
		flows[d.Flow].Jitter = d.Cycles
	case DeltaLength:
		flows[d.Flow].Length = d.Length
	case DeltaPrioritySwap:
		flows[d.Flow].Priority, flows[d.Other].Priority = flows[d.Other].Priority, flows[d.Flow].Priority
	case DeltaMapping:
		flows[d.Flow].Src, flows[d.Flow].Dst = d.Src, d.Dst
	case DeltaAddFlow:
		flows = append(flows, d.NewFlow)
	case DeltaRemoveFlow:
		flows = append(flows[:d.Flow], flows[d.Flow+1:]...)
	}
	return traffic.NewSystem(sys.Topology(), flows)
}

// ApplyDeltas folds ApplyDelta over a chain of edits — the from-scratch
// reference the oracle's incremental-divergent invariant compares
// against. Delta i failing aborts the fold with the edits before i
// applied; the error identifies the position.
func ApplyDeltas(sys *traffic.System, deltas []Delta) (*traffic.System, error) {
	for i, d := range deltas {
		next, err := ApplyDelta(sys, d)
		if err != nil {
			return nil, fmt.Errorf("core: delta %d: %w", i, err)
		}
		sys = next
	}
	return sys, nil
}
