package oracle

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"wormnoc/internal/core"
	"wormnoc/internal/noc"
	"wormnoc/internal/sim"
	"wormnoc/internal/traffic"
)

// TestOracleRandomScenarios is the acceptance gate of the verification
// subsystem: 200 generated scenarios (40 under -short), every
// registered analysis attacked by the phasing search, zero invariant
// violations. KnownOptimism findings against SB/SLA are expected to
// appear over the full run — they prove the adversarial attack can
// actually construct multi-point progressive blocking.
func TestOracleRandomScenarios(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 40
	}
	findings, simRuns, attacked := 0, 0, 0
	for seed := int64(0); seed < seeds; seed++ {
		sc := Generate(seed, GenConfig{})
		rep, err := Check(sc, CheckConfig{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, v := range rep.Violations {
			t.Errorf("seed %d (%s): %s", seed, sc, v.String())
		}
		findings += len(rep.Findings)
		simRuns += rep.SimRuns
		attacked += rep.FlowsAttacked
	}
	if attacked == 0 {
		t.Error("no flow was ever attacked: the generator produced no schedulable bounds")
	}
	if !testing.Short() && findings == 0 {
		t.Error("no KnownOptimism finding over the full run: the attack never constructed MPB, it has lost its teeth")
	}
	t.Logf("%d scenarios: %d flows attacked, %d sim runs, %d known-optimism findings",
		seeds, attacked, simRuns, findings)
}

// Generation is a pure function of the seed.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a := Generate(seed, GenConfig{})
		b := Generate(seed, GenConfig{})
		if !reflect.DeepEqual(a.Doc, b.Doc) {
			t.Fatalf("seed %d generated two different scenarios", seed)
		}
	}
	if reflect.DeepEqual(Generate(1, GenConfig{}).Doc, Generate(2, GenConfig{}).Doc) {
		t.Error("distinct seeds produced identical scenarios")
	}
}

// A check is a pure function of (scenario, config): the phasing
// searches draw from seeded generators only.
func TestCheckDeterministic(t *testing.T) {
	sc := Generate(3, GenConfig{})
	a, err := Check(sc, CheckConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Check(sc, CheckConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Violations, b.Violations) || !reflect.DeepEqual(a.Findings, b.Findings) {
		t.Error("identical checks disagreed on violations/findings")
	}
	if a.SimRuns != b.SimRuns || a.FlowsAttacked != b.FlowsAttacked {
		t.Errorf("identical checks spent different budgets: %d/%d vs %d/%d sim runs",
			a.SimRuns, a.FlowsAttacked, b.SimRuns, b.FlowsAttacked)
	}
}

// Every generated scenario stays inside the configured bounds and the
// analyses' validity region, and materialises into a valid system.
func TestGenerateRespectsBounds(t *testing.T) {
	cfg := GenConfig{}
	cfg.setDefaults()
	for seed := int64(0); seed < 100; seed++ {
		sc := Generate(seed, cfg)
		m := sc.Doc.Mesh
		if m.BufDepth < MinBufDepth || m.BufDepth > cfg.MaxBuf {
			t.Fatalf("seed %d: buf %d outside [%d, %d]", seed, m.BufDepth, MinBufDepth, cfg.MaxBuf)
		}
		if m.Width > cfg.MaxDim+2 || m.Height > cfg.MaxDim+2 {
			t.Fatalf("seed %d: mesh %dx%d beyond MaxDim %d", seed, m.Width, m.Height, cfg.MaxDim)
		}
		if len(sc.Doc.Flows) < 2 || len(sc.Doc.Flows) > cfg.MaxFlows {
			t.Fatalf("seed %d: %d flows outside [2, %d]", seed, len(sc.Doc.Flows), cfg.MaxFlows)
		}
		prios := map[int]bool{}
		for _, f := range sc.Doc.Flows {
			if f.Src == f.Dst {
				t.Fatalf("seed %d: flow %q routes to itself", seed, f.Name)
			}
			if prios[f.Priority] {
				t.Fatalf("seed %d: duplicate priority %d", seed, f.Priority)
			}
			prios[f.Priority] = true
		}
		if _, err := sc.System(); err != nil {
			t.Fatalf("seed %d does not materialise: %v", seed, err)
		}
	}
}

// Platforms below Equation 1's validity floor get analytic invariants
// only; the sim attack is skipped with an explicit note, never run
// silently into false unsoundness.
func TestCheckSkipsSimBelowMinBuf(t *testing.T) {
	sc := Generate(0, GenConfig{})
	sc.Doc.Mesh.BufDepth = 1
	rep, err := Check(sc, CheckConfig{Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FlowsAttacked != 0 || rep.SimRuns != 0 {
		t.Errorf("sim attack ran on buf=1: %d flows, %d runs", rep.FlowsAttacked, rep.SimRuns)
	}
	if len(rep.Notes) == 0 {
		t.Error("skipping the sim attack left no note")
	}
	if len(rep.Violations) != 0 {
		t.Errorf("buf=1 produced violations: %v", rep.Violations)
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	sc := Generate(5, GenConfig{})
	cfg := CheckConfig{Seed: 11, Duration: 6000, Restarts: 1, RefineSteps: 1, ProbesPerFlow: 2}
	v := Violation{
		Class:     Unsound,
		Invariant: "sim<=IBN",
		Method:    core.IBN,
		Flow:      1,
		Bound:     100,
		Observed:  140,
		Offsets:   []noc.Cycles{0, 7, 3},
		Detail:    "synthetic for round-trip",
	}
	art := NewArtifact(sc, cfg, v, &ShrinkResult{Scenario: sc, Config: cfg, Attempts: 4, Reductions: 2})

	var buf bytes.Buffer
	if err := art.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, art) {
		t.Errorf("artifact changed in round trip:\n%+v\nvs\n%+v", back, art)
	}
	got := back.CheckConfig()
	if got.Seed != cfg.Seed || got.Duration != cfg.Duration || got.Restarts != cfg.Restarts ||
		got.RefineSteps != cfg.RefineSteps || got.ProbesPerFlow != cfg.ProbesPerFlow {
		t.Errorf("check config changed in round trip: %+v vs %+v", got, cfg)
	}
}

func TestReadArtifactRejects(t *testing.T) {
	sc := Generate(5, GenConfig{})
	art := NewArtifact(sc, CheckConfig{}, Violation{Class: Unsound, Invariant: "sim<=IBN"}, nil)

	encode := func(mutate func(*Artifact)) *bytes.Buffer {
		cp := *art
		mutate(&cp)
		var buf bytes.Buffer
		if err := cp.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}

	if _, err := ReadArtifact(encode(func(a *Artifact) { a.Version = 99 })); err == nil {
		t.Error("future version accepted")
	}
	if _, err := ReadArtifact(encode(func(a *Artifact) { a.Violation.Class = "nonsense" })); err == nil {
		t.Error("unknown violation class accepted")
	}
	if _, err := ReadArtifact(encode(func(a *Artifact) { a.Scenario = traffic.Document{} })); err == nil {
		t.Error("unmaterialisable scenario accepted")
	}
	if _, err := ReadArtifact(bytes.NewReader([]byte(`{"version":1,"unknown_field":true}`))); err == nil {
		t.Error("unknown field accepted")
	}
}

// The divergence class must survive the artifact string round-trip like
// every other class, so a replayed divergence artifact classifies
// correctly.
func TestDivergentClassRoundTrip(t *testing.T) {
	for _, c := range []Class{Unsound, Inconsistent, NonMonotone, NonDeterministic, Divergent, IncrementalDivergent, KnownOptimism} {
		got, err := parseClass(c.String())
		if err != nil {
			t.Fatalf("parseClass(%q): %v", c.String(), err)
		}
		if got != c {
			t.Errorf("class %v round-tripped to %v", c, got)
		}
	}
	if Divergent >= KnownOptimism || IncrementalDivergent >= KnownOptimism {
		t.Error("engine-divergence classes must sort before KnownOptimism so they are treated as violations, not findings")
	}
}

// TestEngineDivergencesCompareWholeResults holds the replay comparison
// to every Result field: a replay that differs from the reference only
// in a buffer's occupancy high-water mark — a field the fast path
// computes in closed form — is a sim-engines-agree violation, while one
// that differs only in Stats is not.
func TestEngineDivergencesCompareWholeResults(t *testing.T) {
	sys, err := Generate(3, GenConfig{}).System()
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Duration: 4_000}
	ref, err := sim.RunReference(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clone := func() *sim.Result {
		r := *ref
		r.MaxOccupancy = make([][]int, len(ref.MaxOccupancy))
		for i := range r.MaxOccupancy {
			r.MaxOccupancy[i] = append([]int(nil), ref.MaxOccupancy[i]...)
		}
		return &r
	}
	if v := engineDivergences(0, ref, clone(), clone()); len(v) != 0 {
		t.Fatalf("identical Results reported as divergent: %v", v)
	}
	stats := clone()
	stats.Stats.FastPathBatches = 7
	if v := engineDivergences(0, ref, stats, clone()); len(v) != 0 {
		t.Fatalf("a Stats-only difference reported as divergent: %v", v)
	}
	occ := clone()
	occ.MaxOccupancy[1][0]++
	v := engineDivergences(0, ref, clone(), occ)
	if len(v) != 1 || v[0].Invariant != "sim-engines-agree" || v[0].Class != Divergent {
		t.Fatalf("a MaxOccupancy-only difference gave %v, want one sim-engines-agree violation", v)
	}
	if !strings.Contains(v[0].Detail, "MaxOccupancy") || !strings.Contains(v[0].Detail, "reused") {
		t.Errorf("violation detail %q does not name the reused engine and MaxOccupancy", v[0].Detail)
	}
}

// TestMPBGenExposesSBAndSLA pins the MPB-prone hunt (`nocfuzz run -gen
// mpb`): scenario 84 of the seed-1 campaign is a multi-point
// progressive blocking case the attack catches SB and SLA out on — both
// classified as KnownOptimism on the same flow — while XLWX and IBN
// survive it. The verdict is independent of the check's worker count.
func TestMPBGenExposesSBAndSLA(t *testing.T) {
	s := DeriveSeed(1, 84)
	sc := Generate(s, MPBGen())
	for _, workers := range []int{1, 0} {
		rep, err := Check(sc, CheckConfig{Seed: s, Duration: 80_000, Restarts: 3,
			ProbesPerFlow: 4, RefineSteps: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range rep.Violations {
			t.Errorf("workers=%d: unexpected violation %s", workers, v)
		}
		want := []struct {
			m               core.Method
			observed, bound noc.Cycles
		}{{core.SB, 755, 716}, {core.SLA, 755, 701}}
		if len(rep.Findings) != len(want) {
			t.Fatalf("workers=%d: %d findings, want %d: %v", workers, len(rep.Findings), len(want), rep.Findings)
		}
		for i, w := range want {
			f := rep.Findings[i]
			if f.Class != KnownOptimism || f.Method != w.m || f.Flow != 2 ||
				f.Observed != w.observed || f.Bound != w.bound {
				t.Errorf("workers=%d: finding %d = %s (observed %d, bound %d), want %s on flow 2 with %d > %d",
					workers, i, f, f.Observed, f.Bound, w.m, w.observed, w.bound)
			}
		}
	}
}
