package wormnoc_test

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"wormnoc/internal/core"
	"wormnoc/internal/noc"
	"wormnoc/internal/sim"
	"wormnoc/internal/workload"
)

// table2Golden mirrors testdata/table2_golden.json: Table II pinned to
// exact values, analysis and simulation columns both.
type table2Golden struct {
	Comment        string `json:"comment"`
	Duration       int64  `json:"duration"`
	SweepFlow      int    `json:"sweep_flow"`
	SweepMaxOffset int64  `json:"sweep_max_offset"`
	SweepStep      int64  `json:"sweep_step"`
	Buffers        []struct {
		Buf      int                `json:"buf"`
		Analysis map[string][]int64 `json:"analysis"`
		SimWorst []int64            `json:"sim_worst"`
	} `json:"buffers"`
}

func loadTable2Golden(t *testing.T) *table2Golden {
	t.Helper()
	raw, err := os.ReadFile("testdata/table2_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var g table2Golden
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	return &g
}

// TestTableIIGoldenAnalysis pins the analysis columns of Table II: every
// registered method's bounds for the didactic scenario at both tabulated
// buffer depths. The golden file is the regression baseline — a diff
// here means the reproduced equations changed behaviour.
func TestTableIIGoldenAnalysis(t *testing.T) {
	g := loadTable2Golden(t)
	for _, row := range g.Buffers {
		sys := workload.Didactic(row.Buf)
		if len(row.Analysis) != len(core.Methods()) {
			t.Errorf("buf=%d: golden file pins %d methods, core.Methods has %d — re-pin the file",
				row.Buf, len(row.Analysis), len(core.Methods()))
		}
		for _, m := range core.Methods() {
			want, ok := row.Analysis[m.String()]
			if !ok {
				t.Errorf("buf=%d: method %s missing from the golden file", row.Buf, m)
				continue
			}
			res, err := core.Analyze(sys, core.Options{Method: m})
			if err != nil {
				t.Fatal(err)
			}
			got := make([]int64, len(res.Flows))
			for i, fr := range res.Flows {
				if fr.Status != core.Schedulable {
					t.Errorf("buf=%d %s flow %d: status %v, golden rows are all schedulable", row.Buf, m, i, fr.Status)
				}
				got[i] = int64(fr.R)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("buf=%d %s: bounds %v, golden %v", row.Buf, m, got, want)
			}
		}
	}
}

// TestTableIIGoldenSimulation pins the simulation columns: the exact
// worst latencies the deterministic offset sweep observes. These embody
// the paper's headline (at buf=10 the observed τ3 latency of 350 exceeds
// the unsafe SB bound of 336 while staying under IBN's 396), so the
// relationships are asserted alongside the raw values.
func TestTableIIGoldenSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("offset sweep is slow in -short mode")
	}
	g := loadTable2Golden(t)
	for _, row := range g.Buffers {
		sys := workload.Didactic(row.Buf)
		sweep, err := sim.SweepOffsets(sys, sim.Config{Duration: noc.Cycles(g.Duration)},
			g.SweepFlow, noc.Cycles(g.SweepMaxOffset), noc.Cycles(g.SweepStep))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]int64, len(sweep.Worst))
		for i, w := range sweep.Worst {
			got[i] = int64(w)
		}
		if fmt.Sprint(got) != fmt.Sprint(row.SimWorst) {
			t.Errorf("buf=%d: sim worst %v, golden %v", row.Buf, got, row.SimWorst)
		}
		for i := range got {
			if ibn := row.Analysis["IBN"]; got[i] > ibn[i] {
				t.Errorf("buf=%d flow %d: observed %d exceeds IBN bound %d", row.Buf, i, got[i], ibn[i])
			}
		}
		if row.Buf == 10 {
			if sb := row.Analysis["SB"]; got[2] <= sb[2] {
				t.Errorf("buf=10: observed τ3 latency %d does not exceed the SB bound %d; MPB not reproduced", got[2], sb[2])
			}
		}
	}
}
