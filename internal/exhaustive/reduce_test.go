package exhaustive

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"wormnoc/internal/noc"
	"wormnoc/internal/sim"
	"wormnoc/internal/traffic"
)

// enumSpec lists small period vectors covering the canonical
// enumerator's edge cases: solo flows, period-1 flows (a single offset,
// hence an empty nonzero range), equal periods, coprime periods.
var enumSpecs = [][]int64{
	{1}, {4}, {2, 3}, {4, 4}, {1, 5}, {5, 1}, {2, 3, 4}, {3, 3, 3}, {1, 2, 3}, {6, 4, 2, 3},
}

// TestEnumCanonicalBijection proves the canonical enumerator is a
// bijection onto exactly the shift-symmetry representatives: the raw
// grid vectors with min offset 0. Size formula and decode coverage are
// both checked against brute force.
func TestEnumCanonicalBijection(t *testing.T) {
	for _, periods := range enumSpecs {
		t.Run(fmt.Sprintf("%v", periods), func(t *testing.T) {
			n := len(periods)
			raw := newEnum(periods, false)
			can := newEnum(periods, true)
			// Size formula: Π Pᵢ − Π (Pᵢ−1).
			wantSize := int64(1)
			rest := int64(1)
			for _, p := range periods {
				wantSize *= p
				rest *= p - 1
			}
			wantSize -= rest
			if can.size != wantSize {
				t.Fatalf("canonical size %d, want %d", can.size, wantSize)
			}
			// Brute force the representative set off the raw grid.
			want := make(map[string]bool)
			rawSeen := make(map[string]bool)
			off := make([]noc.Cycles, n)
			for k := int64(0); k < raw.size; k++ {
				raw.decode(k, off)
				for i, o := range off {
					if o < 0 || int64(o) >= periods[i] {
						t.Fatalf("raw rank %d decodes out of range: %v", k, off)
					}
				}
				rawSeen[fmt.Sprint(off)] = true
				min := off[0]
				for _, o := range off {
					if o < min {
						min = o
					}
				}
				if min == 0 {
					want[fmt.Sprint(off)] = true
				}
			}
			if int64(len(rawSeen)) != raw.size {
				t.Fatalf("raw enumeration covers %d distinct vectors of %d", len(rawSeen), raw.size)
			}
			if int64(len(want)) != wantSize {
				t.Fatalf("brute-force representative count %d, formula %d", len(want), wantSize)
			}
			// Decode must cover each representative exactly once.
			got := make(map[string]bool)
			for k := int64(0); k < can.size; k++ {
				can.decode(k, off)
				key := fmt.Sprint(off)
				if got[key] {
					t.Fatalf("rank %d decodes to duplicate vector %v", k, off)
				}
				got[key] = true
				if !want[key] {
					t.Fatalf("rank %d decodes to non-representative %v", k, off)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("canonical enumeration covers %d of %d representatives", len(got), len(want))
			}
		})
	}
}

// randomTinySystem builds a deterministic random ≤3-flow system on a
// tiny platform. Flow directions are mixed so the generated population
// contains both single-cluster and multi-cluster interference graphs,
// and periods are small enough that the raw grid brute-forces quickly.
func randomTinySystem(rng *rand.Rand) *traffic.System {
	for {
		var topo *noc.Topology
		var nodes int
		cfg := noc.RouterConfig{BufDepth: 2 + rng.Intn(3), LinkLatency: 1, RouteLatency: noc.Cycles(rng.Intn(2))}
		if rng.Intn(2) == 0 {
			nodes = 2 + rng.Intn(3)
			topo = noc.MustMesh(nodes, 1, cfg)
		} else {
			nodes = 4
			topo = noc.MustMesh(2, 2, cfg)
		}
		nf := 1 + rng.Intn(3)
		flows := make([]traffic.Flow, nf)
		for i := range flows {
			p := noc.Cycles(2 + rng.Intn(5))
			src := rng.Intn(nodes)
			dst := rng.Intn(nodes - 1)
			if dst >= src {
				dst++
			}
			flows[i] = traffic.Flow{
				Name: fmt.Sprintf("f%d", i), Priority: i + 1,
				Period: p, Deadline: p, Length: 1 + rng.Intn(4),
				Src: noc.NodeID(src), Dst: noc.NodeID(dst),
			}
		}
		sys, err := traffic.NewSystem(topo, flows)
		if err != nil {
			continue
		}
		return sys
	}
}

// censorFlag is the per-flow evidence Proven keys on: whether any
// explored phasing censored the flow or missed its deadline. The
// reductions preserve this flag exactly; the raw counts legitimately
// differ (the raw grid re-observes each cluster event once per phasing
// of the other clusters).
func censorFlag(fr FlowResult) bool { return fr.Censored > 0 || fr.DeadlineMisses > 0 }

// TestReductionEquivalence is the soundness property suite of the
// reductions: over random tiny systems, every reduction mode must
// agree with the unreduced grid on per-flow worst latencies, censor
// flags and Proven verdicts, produce witnesses that replay on the full
// system to the reported worst, and be bit-identical at workers 1, 2
// and 8. The population is asserted to contain multi-cluster systems
// so the cluster decomposition is genuinely exercised.
func TestReductionEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	multiCluster := 0
	censored := 0
	for trial := 0; trial < 30; trial++ {
		sys := randomTinySystem(rng)
		full, err := Explore(sys, Config{Reduce: ReduceNone, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !full.Complete {
			t.Fatalf("trial %d: raw grid of %d did not complete", trial, full.Space.GridSize)
		}
		if len(full.Space.Clusters) > 1 {
			multiCluster++
		}
		for i := range full.Flows {
			if censorFlag(full.Flows[i]) {
				censored++
				break
			}
		}
		for _, mode := range []Reduction{ReduceSymmetry, ReduceClusters, ReduceAll} {
			var base *Result
			for _, workers := range []int{1, 2, 8} {
				res, err := Explore(sys, Config{Reduce: mode, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if base == nil {
					base = res
				} else if !reflect.DeepEqual(base, res) {
					t.Fatalf("trial %d mode %v: result differs at workers=%d:\n%+v\nvs\n%+v",
						trial, mode, workers, base, res)
				}
				if !res.Complete {
					t.Fatalf("trial %d mode %v: reduced run incomplete", trial, mode)
				}
				if res.States != res.Space.SizeUnder(mode) || res.Reductions.ReducedGridSize != res.States {
					t.Fatalf("trial %d mode %v: states %d, SizeUnder %d, stats %d",
						trial, mode, res.States, res.Space.SizeUnder(mode), res.Reductions.ReducedGridSize)
				}
				for i := range res.Flows {
					if res.Flows[i].Worst != full.Flows[i].Worst {
						t.Errorf("trial %d mode %v flow %d (workers %d): reduced worst %d != full %d\nsystem: %v",
							trial, mode, i, workers, res.Flows[i].Worst, full.Flows[i].Worst, sys.Flows())
					}
					if censorFlag(res.Flows[i]) != censorFlag(full.Flows[i]) {
						t.Errorf("trial %d mode %v flow %d: censor flag %v != full %v",
							trial, mode, i, censorFlag(res.Flows[i]), censorFlag(full.Flows[i]))
					}
					if res.Proven(i) != full.Proven(i) {
						t.Errorf("trial %d mode %v flow %d: proven %v != full %v",
							trial, mode, i, res.Proven(i), full.Proven(i))
					}
					// De-canonicalised witnesses are ordinary full-system
					// phasings achieving the reported worst.
					rr, err := sim.Run(sys, sim.Config{Duration: res.Duration, Offsets: res.Flows[i].Offsets})
					if err != nil {
						t.Fatal(err)
					}
					if rr.WorstLatency[i] != res.Flows[i].Worst {
						t.Errorf("trial %d mode %v flow %d: witness %v replays to %d, reported %d",
							trial, mode, i, res.Flows[i].Offsets, rr.WorstLatency[i], res.Flows[i].Worst)
					}
				}
			}
		}
	}
	if multiCluster == 0 {
		t.Error("population had no multi-cluster system; cluster decomposition untested")
	}
	if censored == 0 {
		t.Error("population had no censored/overloaded system; censor-flag preservation untested")
	}
}

// TestBrokenCanonicaliserCaught is the mutation self-test of the
// equivalence suite: the obvious-but-wrong quotient — pin the
// largest-period flow's offset to 0 and keep the other flows' native
// ranges (a mod-wrapping shift "symmetry") — must be caught by exactly
// the comparison the suite runs. It is wrong because the mod-shifted
// orbit is only equivalent in steady state: at a finite horizon the
// wrapped release pattern differs from every representative's
// transient, and relative phases outside the pinned flow's period are
// never enumerated at all. The plain-shift quotient Explore uses never
// wraps (min offset 0), which is why it is exact (DESIGN.md §15). If
// this test ever fails, the equivalence property has lost its teeth.
func TestBrokenCanonicaliserCaught(t *testing.T) {
	topo := noc.MustMesh(2, 1, noc.RouterConfig{BufDepth: 2, LinkLatency: 1})
	sys := traffic.MustSystem(topo, []traffic.Flow{
		{Name: "f0", Priority: 1, Period: 5, Deadline: 5, Length: 1, Src: 1, Dst: 0},
		{Name: "f1", Priority: 2, Period: 6, Deadline: 6, Length: 4, Src: 1, Dst: 0},
		{Name: "f2", Priority: 3, Period: 6, Deadline: 6, Length: 4, Src: 1, Dst: 0},
	})
	full, err := Explore(sys, Config{Reduce: ReduceNone, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Complete {
		t.Fatal("raw grid incomplete")
	}
	// The broken quotient's representative set: offsets (a, 0, c) with
	// the largest-period flow (first maximum, flow 1) pinned to 0.
	worst := []noc.Cycles{-1, -1, -1}
	for a := int64(0); a < 5; a++ {
		for c := int64(0); c < 6; c++ {
			sr, err := sim.Run(sys, sim.Config{
				Duration: full.Duration,
				Offsets:  []noc.Cycles{noc.Cycles(a), 0, noc.Cycles(c)},
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if sr.WorstLatency[i] > worst[i] {
					worst[i] = sr.WorstLatency[i]
				}
			}
		}
	}
	caught := false
	for i := 0; i < 3; i++ {
		if worst[i] != full.Flows[i].Worst {
			caught = true
		}
		if worst[i] > full.Flows[i].Worst {
			t.Errorf("flow %d: pinned subset exceeds the full grid (%d > %d) — brute force is broken",
				i, worst[i], full.Flows[i].Worst)
		}
	}
	if !caught {
		t.Fatal("the deliberately broken canonicaliser produced full-grid worst cases; the equivalence suite cannot catch quotient bugs")
	}
	// Pin the exact miss so a future simulator change that silently
	// legitimises mod-shifting is noticed here.
	if worst[2] != 32 || full.Flows[2].Worst != 36 {
		t.Errorf("witness drifted: pin-largest worst %d (want 32) vs true %d (want 36)", worst[2], full.Flows[2].Worst)
	}
}
