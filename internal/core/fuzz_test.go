package core_test

import (
	"math"
	"testing"

	"wormnoc/internal/core"
	"wormnoc/internal/noc"
	"wormnoc/internal/traffic"
)

// nonNeg folds an int64 onto [0, MaxInt64], keeping both extremes.
func nonNeg(x int64) int64 {
	if x < 0 {
		return -(x + 1)
	}
	return x
}

// atLeast1 folds an int64 onto [1, MaxInt64].
func atLeast1(x int64) int64 { return max(nonNeg(x), 1) }

// linePairs are the ordered (src, dst) pairs of a 1×3 line.
var linePairs = [6][2]noc.NodeID{{0, 1}, {0, 2}, {1, 0}, {1, 2}, {2, 0}, {2, 1}}

// FuzzAnalyzeMagnitudes drives every analysis with 2–4 flows on a 1×3
// line whose periods, deadlines, jitters and lengths (and the platform's
// buf, linkl and routl) range up to the int64/int limits. Whenever
// NewSystem accepts the system, every flow reported schedulable must
// have C_i <= R_i <= D_i and, for SB, XLWX and IBN, R_i >= C_i + Σ C_j
// over S^D_i (each direct interferer hits at least once and costs at
// least C_j). SLA's per-hit refinement can fall below C_j, so it gets
// only the first property.
func FuzzAnalyzeMagnitudes(f *testing.F) {
	// The 2×1 overflow regression of TestOverflowingWindowNotSchedulable,
	// with both flows on the line's 0→1 pair.
	f.Add(uint8(0), int64(2), int64(1), int64(0), uint16(0),
		int64(math.MaxInt64), int64(math.MaxInt64), int64(math.MaxInt64-5), int64(100),
		int64(math.MaxInt64), int64(50), int64(0), int64(10),
		int64(0), int64(0), int64(0), int64(0),
		int64(0), int64(0), int64(0), int64(0))
	f.Add(uint8(2), int64(3), int64(2), int64(1), uint16(1000),
		int64(100), int64(90), int64(3), int64(20),
		int64(400), int64(400), int64(0), int64(8),
		int64(1<<40), int64(1<<40), int64(1<<39), int64(1<<20),
		int64(math.MaxInt64), int64(math.MinInt64), int64(-1), int64(5))
	f.Fuzz(func(t *testing.T, extra uint8, buf, linkl, routl int64, routes uint16,
		p0, d0, j0, l0, p1, d1, j1, l1, p2, d2, j2, l2, p3, d3, j3, l3 int64) {
		topo, err := noc.NewMesh(3, 1, noc.RouterConfig{
			BufDepth:     int(min(atLeast1(buf), math.MaxInt)),
			LinkLatency:  noc.Cycles(atLeast1(linkl)),
			RouteLatency: noc.Cycles(nonNeg(routl)),
		})
		if err != nil {
			t.Fatal(err)
		}
		params := [4][4]int64{{p0, d0, j0, l0}, {p1, d1, j1, l1}, {p2, d2, j2, l2}, {p3, d3, j3, l3}}
		flows := make([]traffic.Flow, 2+int(extra%3))
		for i := range flows {
			p := params[i]
			period := atLeast1(p[0])
			deadline := nonNeg(p[1])
			if deadline < 1 || deadline > period {
				deadline = period
			}
			pair := linePairs[int(routes)%6]
			routes /= 6
			flows[i] = traffic.Flow{
				Priority: i + 1,
				Period:   noc.Cycles(period),
				Deadline: noc.Cycles(deadline),
				Jitter:   noc.Cycles(nonNeg(p[2])),
				Length:   int(min(atLeast1(p[3]), math.MaxInt)),
				Src:      pair[0],
				Dst:      pair[1],
			}
		}
		sys, err := traffic.NewSystem(topo, flows)
		if err != nil {
			return
		}
		sets := core.BuildSets(sys)
		for _, m := range core.Methods() {
			// A small iteration cap keeps each input fast; both
			// properties hold at any cap.
			res, err := core.NewEngineWithSets(sys, sets).Analyze(core.Options{Method: m, MaxIterations: 1 << 12})
			if err != nil {
				t.Fatalf("%s: %v", m, err)
			}
			for i, fr := range res.Flows {
				if fr.Status != core.Schedulable {
					continue
				}
				ci := sys.C(i)
				if fr.R < ci || fr.R > sys.Flow(i).Deadline {
					t.Fatalf("%s: flow %d schedulable with R = %d outside [C = %d, D = %d]", m, i, fr.R, ci, sys.Flow(i).Deadline)
				}
				if m == core.SLA {
					continue
				}
				floor := ci
				for _, j := range sets.Direct(i) {
					floor = noc.SatAdd(floor, sys.C(j))
				}
				if fr.R < floor {
					t.Fatalf("%s: flow %d schedulable with R = %d below C_i + Σ_{S^D} C_j = %d", m, i, fr.R, floor)
				}
			}
		}
	})
}
