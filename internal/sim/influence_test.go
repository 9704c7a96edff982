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
// differentials: up to 6 flows on meshes up to 3×3, periods short
// enough for a 1 500-cycle horizon to see many releases. influenceCase
// sets the link and routing latencies.
var influenceGen = oracle.GenConfig{
	MaxDim: 3, MaxFlows: 6, MaxBuf: 4, MaxLinkLatency: 1,
	PeriodMin: 20, PeriodMax: 160, LenMin: 2, LenMax: 12, JitterProb: -1,
}

// influenceCase builds one differential case from seed: an influenceGen
// system on linkl 1–3 and routl 0–2, and a search of one of its flows.
// mode bit 0 appends an overloaded lowest-priority flow, one flit per
// linkl cycles on its injection link, so the network never drains while
// it runs; bit 1 gives the flows of the target's influence set jitter,
// and bit 2 the flows outside it; either bit injects jitter. ok is
// false when the scenario does not build.
func influenceCase(seed int64, linkl, routl, mode uint8) (label string, sys *traffic.System, cfg sim.SearchConfig, ok bool) {
	sc := oracle.Generate(seed, influenceGen)
	sc.Doc.Mesh.LinkLatency = int64(1 + linkl%3)
	sc.Doc.Mesh.RouteLatency = int64(routl % 3)
	rng := rand.New(rand.NewSource(seed))
	if mode&1 != 0 {
		lowest := 0
		for _, f := range sc.Doc.Flows {
			lowest = max(lowest, f.Priority)
		}
		nodes := sc.Doc.Mesh.Width * sc.Doc.Mesh.Height
		src := rng.Intn(nodes)
		period := 8 * sc.Doc.Mesh.LinkLatency
		sc.Doc.Flows = append(sc.Doc.Flows, traffic.FlowSpec{
			Name: "flood", Priority: lowest + 1, Period: period, Deadline: period, Length: 16,
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
	if mode&6 != 0 {
		keep := sim.Influence(sys, cfg)
		for i := range sc.Doc.Flows {
			sc.Doc.Flows[i].Jitter = 0
			if in := keep == nil || slices.Contains(keep, i); in && mode&2 != 0 || !in && mode&4 != 0 {
				sc.Doc.Flows[i].Jitter = sc.Doc.Flows[i].Period / 4
			}
		}
		if sys, err = sc.System(); err != nil {
			return "", nil, cfg, false
		}
		cfg.Base.InjectJitter, cfg.Base.JitterSeed = true, seed
	}
	cfg.Base.Offsets = randomOffsets(sys, seed+1)
	return fmt.Sprintf("seed %d (%s) mode %d target %d", seed, sc, mode%8, cfg.Target), sys, cfg, true
}

// mustMatchUnrestricted runs cfg's search without the influence
// restriction, and with it at Workers 1 and 3, fails unless the results
// are DeepEqual, and returns the unrestricted one.
func mustMatchUnrestricted(t *testing.T, label string, sys *traffic.System, cfg sim.SearchConfig) *sim.SearchResult {
	t.Helper()
	want, err := sim.SearchWorstCase(sys, sim.Unrestricted(cfg))
	if err != nil {
		t.Fatalf("%s: unrestricted: %v", label, err)
	}
	for _, workers := range []int{1, 3} {
		cfg.Workers = workers
		got, err := sim.SearchWorstCase(sys, cfg)
		if err != nil {
			t.Fatalf("%s: restricted: %v", label, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: restricted search at Workers %d %+v, unrestricted %+v", label, workers, got, want)
		}
	}
	return want
}

// replays reports whether a search of cfg replays dropped flows' jitter:
// it injects jitter, and flows both inside and outside its influence
// set draw it.
func replays(sys *traffic.System, cfg sim.SearchConfig) bool {
	keep := sim.Influence(sys, cfg)
	if keep == nil || !cfg.Base.InjectJitter {
		return false
	}
	in, out := false, false
	for i := range sys.NumFlows() {
		if sys.Flow(i).Jitter > 0 {
			if slices.Contains(keep, i) {
				in = true
			} else {
				out = true
			}
		}
	}
	return in && out
}

// TestInfluenceRestrictionMatchesFull is the influence restriction's
// differential (DESIGN.md §10, "Influence-restricted searches"): over
// generated systems on linkl 1–3 and routl 0–2, with jitter on the
// kept flows, the dropped ones or both, and with an overloaded
// lowest-priority flow that keeps the network from draining, a search
// that simulates only its target's influence set returns a DeepEqual
// SearchResult to one that simulates every flow, at Workers 1 and 3. A
// restricted scoped run's target row, walking a busy-period table and
// replaying the dropped flows' jitter, also equals the full system's
// scoped run's, at the search's offsets, at random ones and under a
// packet cap. -short runs every third case.
func TestInfluenceRestrictionMatchesFull(t *testing.T) {
	step := int64(1)
	if testing.Short() {
		step = 3
	}
	restricted, multiCycle, replayed, flooded := 0, 0, 0, 0
	for seed := step; seed <= 96; seed += step {
		mode := uint8(seed % 8)
		label, sys, cfg, ok := influenceCase(seed, uint8(seed/8), uint8(seed/24), mode)
		if !ok {
			continue
		}
		if mustMatchUnrestricted(t, label, sys, cfg); sim.Influence(sys, cfg) == nil {
			continue
		}
		restricted++
		if sys.Topology().Config().LinkLatency > 1 {
			multiCycle++
		}
		if replays(sys, cfg) {
			replayed++
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
			if trial == 3 {
				run.MaxPacketsPerFlow = 4
			}
			want, err := full.Run(sim.Scoped(run, cfg.Target))
			if err != nil {
				t.Fatal(err)
			}
			got, err := part.Run(sim.WithTable(sim.Scoped(sim.Restricted(sys, keep, run), k), table))
			if err != nil {
				t.Fatal(err)
			}
			if w, g := rowOf(want, cfg.Target), rowOf(got, k); !reflect.DeepEqual(w, g) {
				t.Fatalf("%s offsets %v cap %d: restricted %v scoped row %+v, full %+v",
					label, run.Offsets, run.MaxPacketsPerFlow, keep, g, w)
			}
		}
	}
	// The differential is vacuous unless every ingredient shows up.
	if n := int(step); restricted < 48/n || multiCycle < 24/n || replayed < 8/n || flooded < 16/n {
		t.Fatalf("only %d restricted searches (%d on multi-cycle links, %d replaying dropped jitter, %d flooded); widen the generator",
			restricted, multiCycle, replayed, flooded)
	}
}

// FuzzInfluenceRestrictionMatchesFull drives influenceCase's systems
// through restricted and unrestricted searches: the SearchResults must
// be DeepEqual.
func FuzzInfluenceRestrictionMatchesFull(f *testing.F) {
	for _, s := range []struct {
		seed               int64
		linkl, routl, mode uint8
	}{{1, 0, 0, 0}, {2, 1, 1, 1}, {3, 2, 2, 2}, {4, 0, 0, 3}, {5, 1, 0, 6}, {6, 2, 1, 7}, {-7, 1, 1, 5}, {1 << 40, 2, 2, 4}} {
		f.Add(s.seed, s.linkl, s.routl, s.mode)
	}
	f.Fuzz(func(t *testing.T, seed int64, linkl, routl, mode uint8) {
		label, sys, cfg, ok := influenceCase(seed, linkl, routl, mode)
		if !ok {
			t.Skipf("seed %d mode %d: scenario does not build", seed, mode%8)
		}
		mustMatchUnrestricted(t, label, sys, cfg)
	})
}

// TestInfluenceGateLinkLatency pins why multi-cycle links widen the
// influence set to the target's contention cluster: on two-cycle links
// a lower-priority flit that won a link holds it for both cycles, so a
// higher-priority packet released meanwhile waits a cycle that a run
// without the lower-priority flow would not. The set of hi is {hi} on
// single-cycle links and {hi, lo} on two-cycle ones, without far, which
// shares no link with either; the restricted search equals the
// unrestricted one, which observes lo's delay.
func TestInfluenceGateLinkLatency(t *testing.T) {
	flows := []traffic.Flow{
		{Name: "hi", Priority: 1, Period: 1 << 10, Deadline: 1 << 10, Length: 2, Src: 0, Dst: 2},
		{Name: "lo", Priority: 2, Period: 1 << 10, Deadline: 1 << 10, Length: 8, Src: 0, Dst: 2},
		{Name: "far", Priority: 3, Period: 1 << 10, Deadline: 1 << 10, Length: 8, Src: 3, Dst: 5},
	}
	// lo takes the injection link at cycle 0; hi is released at 1.
	cfg := sim.Config{Duration: 200, Offsets: []noc.Cycles{1, 0, 0}, MaxPacketsPerFlow: 1}
	search := sim.SearchConfig{Base: cfg, Target: 0}
	one := traffic.MustSystem(noc.MustMesh(3, 2, noc.RouterConfig{BufDepth: 2, LinkLatency: 1}), flows)
	if got := sim.Influence(one, search); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("linkl 1: influence set %v, want [0]", got)
	}
	two := traffic.MustSystem(noc.MustMesh(3, 2, noc.RouterConfig{BufDepth: 2, LinkLatency: 2}), flows)
	if got := sim.Influence(two, search); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("linkl 2: influence set %v, want [0 1]", got)
	}
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
		t.Fatalf("linkl 2: hi's latency %d with lo, %d alone; want lo to delay it by one cycle: the cluster has no teeth",
			full.WorstLatency[0], sub.WorstLatency[0])
	}
	want := mustMatchUnrestricted(t, "linkl 2", two, search)
	if want.Worst <= sub.WorstLatency[0] {
		t.Fatalf("linkl 2: the search's worst %d does not see lo's delay over hi alone (%d)", want.Worst, sub.WorstLatency[0])
	}
}

// TestInfluenceGateJitter pins why a restricted run replays the dropped
// flows' jitter: the flows share one jitter stream, drawn in (tick,
// flow) order, so a plain run of the restricted system, without a
// jittered flow that shares no link with the target, shifts the draws
// behind the target's releases. The set of mid is {hi, mid} all the
// same; a replaying restricted run observes mid's full-system
// latencies, and the restricted search equals the unrestricted one.
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
	search := sim.SearchConfig{Base: sim.Config{Duration: 2_000, InjectJitter: true, JitterSeed: 7}, Target: 2}
	if got := sim.Influence(sys, search); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("jittered lo outside the set: influence set %v, want [1 2]", got)
	}
	calm := slices.Clone(flows)
	calm[0].Jitter = 0

	// mid's latencies with lo, without it, and without it but with its
	// draws replayed.
	latencies := func(sys *traffic.System) (full, alone, replayed []noc.Cycles) {
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
		alone = sub.Latencies[1]
		if sub, err = sim.NewEngine(pair).Run(sim.Restricted(sys, []int{1, 2}, cfg)); err != nil {
			t.Fatal(err)
		}
		return res.Latencies[2], alone, sub.Latencies[1]
	}
	full, alone, replayed := latencies(sys)
	if reflect.DeepEqual(full, alone) {
		t.Fatalf("dropping jittered lo left mid's latencies %v unchanged: the replay has no teeth", full)
	}
	if !reflect.DeepEqual(full, replayed) {
		t.Fatalf("replaying jittered lo's draws changed mid's latencies from %v to %v", full, replayed)
	}
	if full, alone, _ := latencies(traffic.MustSystem(topo, calm)); !reflect.DeepEqual(full, alone) {
		t.Fatalf("dropping jitter-free lo changed mid's latencies from %v to %v", full, alone)
	}
	mustMatchUnrestricted(t, "jittered lo", sys, search)
}

// searchScenario is one system of the influence pair and the base
// configuration of its searches.
type searchScenario struct {
	name string
	sys  *traffic.System
	base sim.Config
}

// searchBenchScenarios are the BenchmarkSearch(Un)Restricted systems:
// three `nocfuzz exhaust` systems at a prove check's 2 000-cycle
// horizon, the first of them with a flow appended below every other
// that keeps the network from ever draining, so no busy period of the
// full system ends, and two oracle-default systems on two-cycle links
// with jittered flows at a verify check's 12 000-cycle horizon.
// verify0's jittered flows lie outside some targets' influence sets,
// verify1's inside and outside some, so its searches replay jitter.
func searchBenchScenarios(tb testing.TB) []searchScenario {
	var out []searchScenario
	for i := int64(0); i < 3; i++ {
		sc := oracle.Generate(oracle.DeriveSeed(0x9B10, i), tinyGen)
		sys, err := sc.System()
		if err != nil {
			tb.Fatal(err)
		}
		prove := sim.Config{Duration: 2_000}
		out = append(out, searchScenario{name: fmt.Sprintf("tiny%d", i), sys: sys, base: prove})
		if i == 0 {
			f := sys.Flow(0)
			sc.Doc.Flows = append(sc.Doc.Flows, traffic.FlowSpec{
				Name: "flood", Priority: len(sc.Doc.Flows) + 1, Period: 6, Deadline: 6, Length: 8,
				Src: int(f.Src), Dst: int(f.Dst),
			})
			if sys, err = sc.System(); err != nil {
				tb.Fatal(err)
			}
			out = append(out, searchScenario{name: "flood", sys: sys, base: prove})
		}
	}
	for k, i := range []int64{5, 58} {
		sys, err := oracle.Generate(oracle.DeriveSeed(0x9B11, i), oracle.GenConfig{}).System()
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, searchScenario{name: fmt.Sprintf("verify%d", k), sys: sys,
			base: sim.Config{Duration: 12_000, InjectJitter: true}})
	}
	return out
}

// searchAll searches every flow of sc.sys the way a prove or verify
// check's attack does: 2 restarts of one refinement pass with 4 probes
// per flow, every search sharing one busy-period table.
func searchAll(tb testing.TB, sc searchScenario, restricted bool) []*sim.SearchResult {
	table := new(sim.BusyPeriodTable)
	out := make([]*sim.SearchResult, sc.sys.NumFlows())
	for target := range out {
		cfg := sim.SearchConfig{
			Base: sc.base, Target: target,
			Restarts: 2, RefineSteps: 1, ProbesPerFlow: 4, Seed: int64(target), Workers: 1, Table: table,
		}
		cfg.Base.JitterSeed = int64(target)*2 + 1
		if !restricted {
			cfg = sim.Unrestricted(cfg)
		}
		res, err := sim.SearchWorstCase(sc.sys, cfg)
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
				searchAll(b, sc, restricted)
			}
		})
	}
}

// BenchmarkSearchUnrestricted is the "before" of the influence pair:
// every flow of a prove- or verify-style system searched with every
// flow simulated.
func BenchmarkSearchUnrestricted(b *testing.B) { benchSearch(b, false) }

// BenchmarkSearchRestricted measures the same searches as
// SearchWorstCase runs them, simulating only each target's influence
// set.
func BenchmarkSearchRestricted(b *testing.B) { benchSearch(b, true) }

// TestSearchBenchAgree anchors the influence pair: both sides return
// DeepEqual results, every scenario restricts some target's search,
// the flood scenario's network never drains, and the verify scenarios
// are on two-cycle links, verify0 dropping jittered flows from some
// search and verify1 replaying their draws in some.
func TestSearchBenchAgree(t *testing.T) {
	for _, sc := range searchBenchScenarios(t) {
		if want, got := searchAll(t, sc, false), searchAll(t, sc, true); !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: restricted searches %+v, unrestricted %+v", sc.name, got, want)
		}
		restricted, dropsJitter, replayed := false, false, false
		for target := range sc.sys.NumFlows() {
			cfg := sim.SearchConfig{Base: sc.base, Target: target}
			keep := sim.Influence(sc.sys, cfg)
			restricted = restricted || keep != nil
			replayed = replayed || replays(sc.sys, cfg)
			for i := range sc.sys.NumFlows() {
				dropsJitter = dropsJitter || keep != nil && !slices.Contains(keep, i) && sc.sys.Flow(i).Jitter > 0
			}
		}
		if !restricted {
			t.Errorf("%s: no target's search is restricted", sc.name)
		}
		switch sc.name {
		case "flood":
			res, err := sim.NewEngine(sc.sys).RunBusyPeriod(sim.Config{Duration: 2_000})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.StoppedAt != 2_000 {
				t.Errorf("flood: the network drained at cycle %d", res.Stats.StoppedAt)
			}
		case "verify0", "verify1":
			if l := sc.sys.Topology().Config().LinkLatency; l != 2 || !dropsJitter || replayed != (sc.name == "verify1") {
				t.Errorf("%s: linkl %d, jittered flows dropped %v, replayed %v", sc.name, l, dropsJitter, replayed)
			}
		}
	}
}
