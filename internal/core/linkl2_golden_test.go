package core_test

import (
	"encoding/json"
	"os"
	"testing"

	"wormnoc/internal/core"
	"wormnoc/internal/noc"
	"wormnoc/internal/traffic"
	"wormnoc/internal/workload"
)

// linkl2Golden mirrors testdata/linkl2_golden.json: per-flow bounds and
// statuses of every registered method on systems with 2-cycle links,
// where the non-preemptive flit-transfer blocking term (blocking.go) is
// live. The term reads the route links shared with lower-priority flows
// and the downstream partitions of every direct pair, so a change to how
// either is derived shows up here as a diff.
type linkl2Golden struct {
	Comment string `json:"comment"`
	Systems []struct {
		Name    string                      `json:"name"`
		Methods map[string]linkl2GoldenFlow `json:"methods"`
	} `json:"systems"`
}

type linkl2GoldenFlow struct {
	R      []int64  `json:"r"`
	Status []string `json:"status"`
}

// linkl2Systems builds the pinned systems: the paper's didactic example
// and two synthetic flow sets, each moved onto 2-cycle links.
func linkl2Systems(t *testing.T) map[string]*traffic.System {
	t.Helper()
	rebind := func(sys *traffic.System) *traffic.System {
		cfg := sys.Topology().Config()
		cfg.LinkLatency = 2
		out, err := sys.WithConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	synth := func(w, h, buf, n int, seed int64) *traffic.System {
		topo := noc.MustMesh(w, h, noc.RouterConfig{BufDepth: buf, LinkLatency: 2, RouteLatency: 1})
		sys, err := workload.Synthetic(topo, workload.SynthConfig{
			NumFlows: n, Seed: seed, PeriodMin: 4_000, PeriodMax: 40_000, LenMin: 64, LenMax: 1024,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	return map[string]*traffic.System{
		"didactic-buf2":     rebind(workload.Didactic(2)),
		"didactic-buf10":    rebind(workload.Didactic(10)),
		"synthetic-4x4-n60": synth(4, 4, 4, 60, 7),
		"synthetic-3x3-n30": synth(3, 3, 2, 30, 11),
	}
}

// TestLinkl2Golden pins SB, SLA, XLWX and IBN on 2-cycle-link systems.
func TestLinkl2Golden(t *testing.T) {
	raw, err := os.ReadFile("testdata/linkl2_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var g linkl2Golden
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	systems := linkl2Systems(t)
	if len(g.Systems) != len(systems) {
		t.Fatalf("golden file pins %d systems, test builds %d", len(g.Systems), len(systems))
	}
	for _, row := range g.Systems {
		sys, ok := systems[row.Name]
		if !ok {
			t.Fatalf("golden system %q is not built by the test", row.Name)
		}
		for _, m := range core.Methods() {
			want, ok := row.Methods[m.String()]
			if !ok {
				t.Errorf("%s: method %s missing from the golden file", row.Name, m)
				continue
			}
			res, err := core.Analyze(sys, core.Options{Method: m})
			if err != nil {
				t.Fatal(err)
			}
			if len(want.R) != sys.NumFlows() || len(want.Status) != sys.NumFlows() {
				t.Fatalf("%s/%s: golden pins %d flows, system has %d", row.Name, m, len(want.R), sys.NumFlows())
			}
			for i, fr := range res.Flows {
				if int64(fr.R) != want.R[i] || fr.Status.String() != want.Status[i] {
					t.Errorf("%s/%s flow %d: got R=%d %v, golden R=%d %s",
						row.Name, m, i, fr.R, fr.Status, want.R[i], want.Status[i])
				}
			}
		}
	}
}
