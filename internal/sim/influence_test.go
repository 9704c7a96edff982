package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"wormnoc/internal/noc"
	"wormnoc/internal/oracle"
	"wormnoc/internal/sim"
	"wormnoc/internal/traffic"
)

// influenceGen draws the systems of the influence-restriction
// differentials: single-cycle links (the gate), up to 6 flows on meshes
// up to 3×3, periods short enough for a 1 500-cycle horizon to see many
// releases.
var influenceGen = oracle.GenConfig{
	MaxDim: 3, MaxFlows: 6, MaxBuf: 4, MaxLinkLatency: 1,
	PeriodMin: 20, PeriodMax: 160, LenMin: 2, LenMax: 12, JitterProb: -1,
}

// influenceCase builds one differential case from seed: an influenceGen
// system on routl 0–2 and a search of one of its flows. mode bit 0
// appends an overloaded lowest-priority flow, one flit per cycle on its
// injection link, so the network never drains while it runs; bit 1
// gives every flow of the target's influence set jitter and injects it,
// with the flows outside the set jitter-free. ok is false when the
// scenario does not build.
func influenceCase(seed int64, routl, mode uint8) (label string, sys *traffic.System, cfg sim.SearchConfig, ok bool) {
	sc := oracle.Generate(seed, influenceGen)
	sc.Doc.Mesh.RouteLatency = int64(routl % 3)
	rng := rand.New(rand.NewSource(seed))
	if mode&1 != 0 {
		lowest := 0
		for _, f := range sc.Doc.Flows {
			lowest = max(lowest, f.Priority)
		}
		nodes := sc.Doc.Mesh.Width * sc.Doc.Mesh.Height
		src := rng.Intn(nodes)
		sc.Doc.Flows = append(sc.Doc.Flows, traffic.FlowSpec{
			Name: "flood", Priority: lowest + 1, Period: 8, Deadline: 8, Length: 16,
			Src: src, Dst: (src + 1 + rng.Intn(nodes-1)) % nodes,
		})
	}
	sys, err := sc.System()
	if err != nil {
		return "", nil, cfg, false
	}
	cfg = sim.SearchConfig{
		Base:   sim.Config{Duration: 1_500},
		Target: rng.Intn(sys.NumFlows()),
		// One restart from Base.Offsets, two drawn.
		Restarts: 3, RefineSteps: 2, ProbesPerFlow: 4, Seed: seed, Workers: 1,
	}
	if mode&2 != 0 {
		if keep := sim.Influence(sys, cfg); keep != nil {
			for i := range sc.Doc.Flows {
				sc.Doc.Flows[i].Jitter = 0
				if slices.Contains(keep, i) {
					sc.Doc.Flows[i].Jitter = sc.Doc.Flows[i].Period / 4
				}
			}
			if sys, err = sc.System(); err != nil {
				return "", nil, cfg, false
			}
			cfg.Base.InjectJitter, cfg.Base.JitterSeed = true, seed
		}
	}
	cfg.Base.Offsets = randomOffsets(sys, seed+1)
	return fmt.Sprintf("seed %d (%s) mode %d target %d", seed, sc, mode%4, cfg.Target), sys, cfg, true
}

// mustMatchUnrestricted runs cfg's search with and without the
// influence restriction and fails unless the results are DeepEqual. It
// reports whether the search was restricted.
func mustMatchUnrestricted(t *testing.T, label string, sys *traffic.System, cfg sim.SearchConfig) bool {
	t.Helper()
	want, err := sim.SearchWorstCase(sys, sim.Unrestricted(cfg))
	if err != nil {
		t.Fatalf("%s: unrestricted: %v", label, err)
	}
	got, err := sim.SearchWorstCase(sys, cfg)
	if err != nil {
		t.Fatalf("%s: restricted: %v", label, err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: restricted search %+v, unrestricted %+v", label, got, want)
	}
	return sim.Influence(sys, cfg) != nil
}

// TestInfluenceRestrictionMatchesFull is the influence restriction's
// differential (DESIGN.md §10, "Influence-restricted searches"): over
// generated single-cycle-link systems on routl 0–2, with jitter on the
// kept flows and none on the dropped ones, and with an overloaded
// lowest-priority flow that keeps the network from draining, a search
// that simulates only its target's influence set returns a DeepEqual
// SearchResult to one that simulates every flow. A restricted scoped
// run's target row, walking a busy-period table, also equals the full
// system's scoped run's, at the search's offsets and at random ones.
func TestInfluenceRestrictionMatchesFull(t *testing.T) {
	restricted, jittered, flooded := 0, 0, 0
	for seed := int64(1); seed <= 48; seed++ {
		mode := uint8(seed % 4)
		label, sys, cfg, ok := influenceCase(seed, uint8(seed/4), mode)
		if !ok {
			continue
		}
		if !mustMatchUnrestricted(t, label, sys, cfg) {
			continue
		}
		restricted++
		if cfg.Base.InjectJitter {
			jittered++
		}
		if mode&1 != 0 {
			flooded++
		}

		keep := sim.Influence(sys, cfg)
		sub, err := sim.Restrict(sys, keep)
		if err != nil {
			t.Fatal(err)
		}
		k := slices.Index(keep, cfg.Target)
		full, part := sim.NewEngine(sys), sim.NewEngine(sub)
		table := new(sim.BusyPeriodTable)
		for trial := int64(0); trial < 4; trial++ {
			run := cfg.Base
			if trial > 0 {
				run.Offsets = randomOffsets(sys, seed*10+trial)
			}
			want, err := full.Run(sim.Scoped(run, cfg.Target))
			if err != nil {
				t.Fatal(err)
			}
			proj := run
			proj.Offsets = make([]noc.Cycles, len(keep))
			for j, f := range keep {
				proj.Offsets[j] = run.Offsets[f]
			}
			got, err := part.Run(sim.WithTable(sim.Scoped(proj, k), table))
			if err != nil {
				t.Fatal(err)
			}
			if w, g := rowOf(want, cfg.Target), rowOf(got, k); !reflect.DeepEqual(w, g) {
				t.Fatalf("%s offsets %v: restricted %v scoped row %+v, full %+v", label, run.Offsets, keep, g, w)
			}
		}
	}
	// The differential is vacuous unless every ingredient shows up.
	if restricted < 16 || jittered < 4 || flooded < 4 {
		t.Fatalf("only %d restricted searches (%d jittered, %d flooded); widen the generator", restricted, jittered, flooded)
	}
}

// FuzzInfluenceRestrictionMatchesFull drives influenceCase's systems
// through restricted and unrestricted searches: the SearchResults must
// be DeepEqual.
func FuzzInfluenceRestrictionMatchesFull(f *testing.F) {
	for _, s := range []struct {
		seed        int64
		routl, mode uint8
	}{{1, 0, 0}, {2, 1, 1}, {3, 2, 2}, {4, 0, 3}, {-7, 1, 3}, {1 << 40, 2, 1}} {
		f.Add(s.seed, s.routl, s.mode)
	}
	f.Fuzz(func(t *testing.T, seed int64, routl, mode uint8) {
		label, sys, cfg, ok := influenceCase(seed, routl, mode)
		if !ok {
			t.Skipf("seed %d mode %d: scenario does not build", seed, mode%4)
		}
		mustMatchUnrestricted(t, label, sys, cfg)
	})
}

// TestInfluenceGateLinkLatency pins the influence set's link-latency
// gate: on two-cycle links a lower-priority flit that won a link holds
// it for both cycles, so a higher-priority packet released meanwhile
// waits a cycle that its restricted run would not. The set comes back
// nil there (no restriction), and {hi} on single-cycle links.
func TestInfluenceGateLinkLatency(t *testing.T) {
	flows := []traffic.Flow{
		{Name: "hi", Priority: 1, Period: 1 << 10, Deadline: 1 << 10, Length: 2, Src: 0, Dst: 2},
		{Name: "lo", Priority: 2, Period: 1 << 10, Deadline: 1 << 10, Length: 8, Src: 0, Dst: 2},
	}
	search := sim.SearchConfig{Base: sim.Config{Duration: 200}, Target: 0}
	one := traffic.MustSystem(noc.MustMesh(3, 1, noc.RouterConfig{BufDepth: 2, LinkLatency: 1}), flows)
	if got := sim.Influence(one, search); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("linkl 1: influence set %v, want [0]", got)
	}
	two := traffic.MustSystem(noc.MustMesh(3, 1, noc.RouterConfig{BufDepth: 2, LinkLatency: 2}), flows)
	if got := sim.Influence(two, search); got != nil {
		t.Fatalf("linkl 2: influence set %v, want nil", got)
	}
	// lo takes the injection link at cycle 0; hi is released at 1.
	cfg := sim.Config{Duration: 200, Offsets: []noc.Cycles{1, 0}, MaxPacketsPerFlow: 1}
	full, err := sim.Run(two, cfg)
	if err != nil {
		t.Fatal(err)
	}
	alone, err := sim.Restrict(two, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := sim.Run(alone, sim.Config{Duration: 200, Offsets: []noc.Cycles{1}, MaxPacketsPerFlow: 1})
	if err != nil {
		t.Fatal(err)
	}
	if full.WorstLatency[0] != sub.WorstLatency[0]+1 {
		t.Fatalf("linkl 2: hi's latency %d with lo, %d alone; want lo to delay it by one cycle: the gate has no teeth",
			full.WorstLatency[0], sub.WorstLatency[0])
	}
}

// TestInfluenceGateJitter pins the influence set's jitter gate: the
// flows share one jitter stream, drawn in flow order, so dropping a
// jittered flow, even one that shares no link with the target, shifts
// the draws behind the target's releases. The set comes back nil with
// jitter injected and a jittered flow outside it, and is used when that
// flow is jitter-free.
func TestInfluenceGateJitter(t *testing.T) {
	topo := noc.MustMesh(4, 2, noc.RouterConfig{BufDepth: 2, LinkLatency: 1})
	flows := []traffic.Flow{
		// lo shares no link with the others and draws first.
		{Name: "lo", Priority: 3, Period: 40, Deadline: 40, Jitter: 10, Length: 4, Src: 4, Dst: 7},
		{Name: "hi", Priority: 1, Period: 40, Deadline: 40, Length: 8, Src: 0, Dst: 3},
		{Name: "mid", Priority: 2, Period: 40, Deadline: 40, Jitter: 10, Length: 8, Src: 0, Dst: 3},
	}
	sys := traffic.MustSystem(topo, flows)
	cfg := sim.Config{Duration: 2_000, InjectJitter: true, JitterSeed: 7, RecordLatencies: true}
	search := sim.SearchConfig{Base: cfg, Target: 2}
	if got := sim.Influence(sys, search); got != nil {
		t.Fatalf("jittered lo outside the set: influence set %v, want nil", got)
	}
	search.Base.InjectJitter = false
	if got := sim.Influence(sys, search); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("jitter off: influence set %v, want [1 2]", got)
	}
	calm := slices.Clone(flows)
	calm[0].Jitter = 0
	search.Base.InjectJitter = true
	if got := sim.Influence(traffic.MustSystem(topo, calm), search); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("jitter-free lo: influence set %v, want [1 2]", got)
	}

	// mid's latencies with lo, and without it: equal only when lo draws
	// no jitter.
	latencies := func(sys *traffic.System) (full, alone []noc.Cycles) {
		res, err := sim.Run(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pair, err := sim.Restrict(sys, []int{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		sub, err := sim.Run(pair, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Latencies[2], sub.Latencies[1]
	}
	if full, alone := latencies(sys); reflect.DeepEqual(full, alone) {
		t.Fatalf("dropping jittered lo left mid's latencies %v unchanged: the gate has no teeth", full)
	}
	if full, alone := latencies(traffic.MustSystem(topo, calm)); !reflect.DeepEqual(full, alone) {
		t.Fatalf("dropping jitter-free lo changed mid's latencies from %v to %v", full, alone)
	}
}

// searchBenchScenarios are the BenchmarkSearch(Un)Restricted systems:
// three `nocfuzz exhaust` systems and the first of them with a flow
// appended below every other that keeps the network from ever
// draining, so no busy period of the full system ends.
func searchBenchScenarios(tb testing.TB) []probeScenario {
	var out []probeScenario
	for i := int64(0); i < 3; i++ {
		sc := oracle.Generate(oracle.DeriveSeed(0x9B10, i), tinyGen)
		sys, err := sc.System()
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, probeScenario{name: fmt.Sprintf("tiny%d", i), sys: sys})
		if i == 0 {
			f := sys.Flow(0)
			sc.Doc.Flows = append(sc.Doc.Flows, traffic.FlowSpec{
				Name: "flood", Priority: len(sc.Doc.Flows) + 1, Period: 6, Deadline: 6, Length: 8,
				Src: int(f.Src), Dst: int(f.Dst),
			})
			if sys, err = sc.System(); err != nil {
				tb.Fatal(err)
			}
			out = append(out, probeScenario{name: "flood", sys: sys})
		}
	}
	return out
}

// searchAll searches every flow of sys the way a prove check's attack
// does: a 2 000-cycle horizon, 2 restarts of one refinement pass with 4
// probes per flow, every search sharing one busy-period table.
func searchAll(tb testing.TB, sys *traffic.System, restricted bool) []*sim.SearchResult {
	table := new(sim.BusyPeriodTable)
	out := make([]*sim.SearchResult, sys.NumFlows())
	for target := range out {
		cfg := sim.SearchConfig{
			Base: sim.Config{Duration: 2_000}, Target: target,
			Restarts: 2, RefineSteps: 1, ProbesPerFlow: 4, Seed: int64(target), Workers: 1, Table: table,
		}
		if !restricted {
			cfg = sim.Unrestricted(cfg)
		}
		res, err := sim.SearchWorstCase(sys, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		out[target] = res
	}
	return out
}

func benchSearch(b *testing.B, restricted bool) {
	for _, sc := range searchBenchScenarios(b) {
		b.Run(sc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				searchAll(b, sc.sys, restricted)
			}
		})
	}
}

// BenchmarkSearchUnrestricted is the "before" of the influence pair:
// every flow of a prove-style system searched with every flow
// simulated.
func BenchmarkSearchUnrestricted(b *testing.B) { benchSearch(b, false) }

// BenchmarkSearchRestricted measures the same searches as
// SearchWorstCase runs them, simulating only each target's influence
// set.
func BenchmarkSearchRestricted(b *testing.B) { benchSearch(b, true) }

// TestSearchBenchAgree anchors the influence pair: both sides return
// DeepEqual results, every scenario restricts some target's search, and
// the flood scenario's network never drains.
func TestSearchBenchAgree(t *testing.T) {
	for _, sc := range searchBenchScenarios(t) {
		if want, got := searchAll(t, sc.sys, false), searchAll(t, sc.sys, true); !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: restricted searches %+v, unrestricted %+v", sc.name, got, want)
		}
		restricted := false
		for target := range sc.sys.NumFlows() {
			restricted = restricted || sim.Influence(sc.sys, sim.SearchConfig{Target: target}) != nil
		}
		if !restricted {
			t.Errorf("%s: no target's search is restricted", sc.name)
		}
		if sc.name == "flood" {
			res, err := sim.NewEngine(sc.sys).RunBusyPeriod(sim.Config{Duration: 2_000})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.StoppedAt != 2_000 {
				t.Errorf("flood: the network drained at cycle %d", res.Stats.StoppedAt)
			}
		}
	}
}
