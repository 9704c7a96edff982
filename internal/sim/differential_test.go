package sim_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"wormnoc/internal/noc"
	"wormnoc/internal/oracle"
	"wormnoc/internal/sim"
	"wormnoc/internal/traffic"
	"wormnoc/internal/workload"
)

// diffConfigs derives a handful of simulation configurations per
// scenario, covering the knobs that shape engine behaviour: phasings,
// jitter injection, packet caps and latency recording.
func diffConfigs(seed int64, numFlows int, periods []noc.Cycles) []sim.Config {
	rng := rand.New(rand.NewSource(seed))
	base := sim.Config{Duration: 2_000 + noc.Cycles(rng.Int63n(4_000))}

	random := base
	random.Offsets = make([]noc.Cycles, numFlows)
	for i := range random.Offsets {
		random.Offsets[i] = noc.Cycles(rng.Int63n(int64(periods[i])))
	}

	jittered := base
	jittered.InjectJitter = true
	jittered.JitterSeed = seed

	capped := random
	capped.MaxPacketsPerFlow = 1 + rng.Intn(3)
	capped.RecordLatencies = true

	return []sim.Config{base, random, jittered, capped}
}

func mustEqualResults(t *testing.T, label string, ref, got *sim.Result) {
	t.Helper()
	// Stats counts how the result was computed (fast-path batches), not
	// what was observed; it is the one field allowed to differ.
	a, b := *ref, *got
	a.Stats, b.Stats = sim.Stats{}, sim.Stats{}
	if !reflect.DeepEqual(&a, &b) {
		t.Fatalf("%s: event-driven engine diverged from reference\nreference: %+v\nevent-driven: %+v", label, ref, got)
	}
}

// TestDifferentialEngines replays the oracle's scenario distribution —
// 1×N lines and W×H meshes, XY and YX routing, jittered flows, shallow
// and deep buffers — through the retained reference engine and the
// event-driven Engine, asserting bit-identical Results: per-packet
// latencies, occupancies, completion/release/deadline counters and
// in-flight totals — with the engine's runtime invariants checked after
// every cycle and batch. This is the safety net that lets the
// event-driven engine be the default.
func TestDifferentialEngines(t *testing.T) {
	const scenarios = 220
	for i := 0; i < scenarios; i++ {
		seed := oracle.DeriveSeed(0xD1FF, int64(i))
		sc := oracle.Generate(seed, oracle.GenConfig{})
		sys, err := sc.System()
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		periods := make([]noc.Cycles, sys.NumFlows())
		for f := range periods {
			periods[f] = sys.Flow(f).Period
		}
		for ci, cfg := range diffConfigs(seed, sys.NumFlows(), periods) {
			ref, err := sim.RunReference(sys, cfg)
			if err != nil {
				t.Fatalf("scenario %d cfg %d: reference: %v", i, ci, err)
			}
			got, err := sim.Run(sys, sim.Checked(cfg))
			if err != nil {
				t.Fatalf("scenario %d cfg %d: event-driven: %v", i, ci, err)
			}
			mustEqualResults(t, fmt.Sprintf("scenario %d (%s) cfg %d", i, sc, ci), ref, got)
		}
	}
}

// TestDifferentialTraceStreams compares the raw flit-level trace output
// of the two engines byte for byte: same transfers, same cycle, same
// link, emitted in the same order — the strongest statement that cycle
// skipping and dirty-link arbitration change nothing observable.
func TestDifferentialTraceStreams(t *testing.T) {
	const scenarios = 24
	for i := 0; i < scenarios; i++ {
		seed := oracle.DeriveSeed(0x7ACE, int64(i))
		sc := oracle.Generate(seed, oracle.GenConfig{})
		sys, err := sc.System()
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		cfg := sim.Config{Duration: 1_500, InjectJitter: i%2 == 0, JitterSeed: seed}

		var refTrace, newTrace bytes.Buffer
		refCfg := cfg
		refCfg.TraceWriter = &refTrace
		if _, err := sim.RunReference(sys, refCfg); err != nil {
			t.Fatalf("scenario %d: reference: %v", i, err)
		}
		newCfg := sim.Checked(cfg)
		newCfg.TraceWriter = &newTrace
		if _, err := sim.Run(sys, newCfg); err != nil {
			t.Fatalf("scenario %d: event-driven: %v", i, err)
		}
		if refTrace.Len() == 0 {
			t.Fatalf("scenario %d (%s): reference trace empty — scenario exercises nothing", i, sc)
		}
		if !bytes.Equal(refTrace.Bytes(), newTrace.Bytes()) {
			t.Fatalf("scenario %d (%s): trace streams diverge\nreference %d bytes, event-driven %d bytes",
				i, sc, refTrace.Len(), newTrace.Len())
		}
	}
}

// TestDifferentialDidactic pins the engines against each other on the
// paper's Section V example — the scenario behind Table II and
// testdata/table2_golden.json — across both tabulated buffer depths and
// a grid of τ2 phasings including the MPB-triggering ones.
func TestDifferentialDidactic(t *testing.T) {
	for _, buf := range []int{2, 10} {
		sys := workload.Didactic(buf)
		for off := noc.Cycles(0); off <= 200; off += 20 {
			cfg := sim.Config{
				Duration:        20_000,
				Offsets:         []noc.Cycles{0, off, 0},
				RecordLatencies: true,
			}
			ref, err := sim.RunReference(sys, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.Run(sys, cfg)
			if err != nil {
				t.Fatal(err)
			}
			mustEqualResults(t, fmt.Sprintf("didactic buf=%d off=%d", buf, off), ref, got)
		}
	}
}

// tinyGen is the scenario distribution of `nocfuzz exhaust`: meshes of
// at most 2×2 nodes, at most 3 flows, 6–18-cycle periods, 2–6-flit
// packets, no jitter. The exhaustive prover spends its time simulating
// such systems, thousands of short runs per proof.
var tinyGen = oracle.GenConfig{
	MaxDim: 2, MaxFlows: 3, MaxBuf: 4, MaxLinkLatency: 1, MaxRouteLatency: -1,
	PeriodMin: 6, PeriodMax: 18, LenMin: 2, LenMax: 6, JitterProb: -1,
}

// randomOffsets draws each flow's first release uniformly in [0, period),
// deterministically in seed.
func randomOffsets(sys *traffic.System, seed int64) []noc.Cycles {
	rng := rand.New(rand.NewSource(seed))
	offs := make([]noc.Cycles, sys.NumFlows())
	for i := range offs {
		offs[i] = noc.Cycles(rng.Int63n(int64(sys.Flow(i).Period)))
	}
	return offs
}

// proofHorizon is the exhaustive explorer's horizon for sys: the
// hyperperiod plus twice the largest deadline.
func proofHorizon(sys *traffic.System) noc.Cycles {
	maxDeadline := noc.Cycles(0)
	for _, f := range sys.Flows() {
		maxDeadline = max(maxDeadline, f.Deadline)
	}
	return sys.Hyperperiod() + 2*maxDeadline
}

// TestDifferentialTiny covers the regime of the exhaustive prover:
// tinyGen scenarios with random offsets, each run at 2 000 cycles and
// at the proof horizon. The reference, a fresh engine and one engine
// reused across all of a scenario's runs must return DeepEqual Results
// (the two event-driven ones including Stats), with the runtime
// invariants checked; on every fourth scenario
// the reference and reused engines' trace streams must also match byte
// for byte, since the engine's link-ordered dirty-set scan carries the
// reference's ascending-link arbitration order.
func TestDifferentialTiny(t *testing.T) {
	const scenarios = 200
	traced := 0
	for i := 0; i < scenarios; i++ {
		seed := oracle.DeriveSeed(0x7147, int64(i))
		sc := oracle.Generate(seed, tinyGen)
		sys, err := sc.System()
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		eng := sim.NewEngine(sys)
		offs := randomOffsets(sys, seed)
		for _, dur := range []noc.Cycles{2_000, proofHorizon(sys)} {
			label := fmt.Sprintf("tiny scenario %d (%s) duration %d", i, sc, dur)
			cfg := sim.Config{Duration: dur, Offsets: offs, RecordLatencies: i%2 == 0}
			ref, err := sim.RunReference(sys, cfg)
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
			fresh, err := sim.Run(sys, sim.Checked(cfg))
			if err != nil {
				t.Fatalf("%s: fresh: %v", label, err)
			}
			reused, err := eng.Run(sim.Checked(cfg))
			if err != nil {
				t.Fatalf("%s: reused: %v", label, err)
			}
			mustEqualResults(t, label, ref, fresh)
			if !reflect.DeepEqual(fresh, reused) {
				t.Fatalf("%s: reused engine diverged from fresh run\nfresh: %+v\nreused: %+v", label, fresh, reused)
			}
		}
		if i%4 != 0 {
			continue
		}
		var refTrace, newTrace bytes.Buffer
		if _, err := sim.RunReference(sys, sim.Config{Duration: 2_000, Offsets: offs, TraceWriter: &refTrace}); err != nil {
			t.Fatalf("scenario %d: reference: %v", i, err)
		}
		if _, err := eng.Run(sim.Config{Duration: 2_000, Offsets: offs, TraceWriter: &newTrace}); err != nil {
			t.Fatalf("scenario %d: reused: %v", i, err)
		}
		if !bytes.Equal(refTrace.Bytes(), newTrace.Bytes()) {
			t.Fatalf("tiny scenario %d (%s): trace streams diverge\nreference %d bytes, reused engine %d bytes",
				i, sc, refTrace.Len(), newTrace.Len())
		}
		if refTrace.Len() > 0 {
			traced++
		}
	}
	if traced == 0 {
		t.Error("no traced tiny scenario transferred a flit; the trace comparison is vacuous")
	}
}

// TestEngineReuseMatchesFreshRuns drives one Engine through a sequence
// of differently-shaped runs (changing offsets, jitter, caps, recording)
// and checks every result against a fresh single-shot Run: reset must
// leave no residue. Its tiny-system half mixes target-scoped probes
// that the recurrence cut ends with probes it may not touch, so stale
// drain phases or completion logs would show.
func TestEngineReuseMatchesFreshRuns(t *testing.T) {
	cut, uncut := 0, 0
	for i := 0; i < 24; i++ {
		seed := oracle.DeriveSeed(0x5EED7, int64(i))
		sys, err := oracle.Generate(seed, tinyGen).System()
		if err != nil {
			t.Fatalf("tiny scenario %d: %v", i, err)
		}
		eng := sim.NewEngine(sys)
		hyper := sys.Hyperperiod()
		for pass := 0; pass < 2; pass++ {
			for k, dur := range []noc.Cycles{2_000, proofHorizon(sys), hyper, 2_000} {
				cfg := sim.Config{Duration: dur, Offsets: randomOffsets(sys, seed+int64(k)), RecordLatencies: k == 3}
				target := (k + pass) % sys.NumFlows()
				fresh, err := sim.Run(sys, sim.Scoped(cfg, target))
				if err != nil {
					t.Fatal(err)
				}
				reused, err := eng.Run(sim.Scoped(cfg, target))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(fresh, reused) {
					t.Fatalf("tiny scenario %d duration %d target %d pass %d: reused engine diverged from fresh run\nfresh: %+v\nreused: %+v",
						i, dur, target, pass, fresh, reused)
				}
				if sim.RecurrencePeriod(reused) > 0 {
					cut++
				} else {
					uncut++
				}
			}
		}
	}
	if cut == 0 || uncut == 0 {
		t.Errorf("tiny probes: %d cut by recurrence, %d not; the reuse check needs both", cut, uncut)
	}
	for i := 0; i < 12; i++ {
		seed := oracle.DeriveSeed(0x5EED, int64(i))
		sc := oracle.Generate(seed, oracle.GenConfig{})
		sys, err := sc.System()
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		periods := make([]noc.Cycles, sys.NumFlows())
		for f := range periods {
			periods[f] = sys.Flow(f).Period
		}
		eng := sim.NewEngine(sys)
		cfgs := diffConfigs(seed, sys.NumFlows(), periods)
		// Run the whole sequence twice so every cfg also reruns on a
		// dirty engine warmed by a different cfg.
		for pass := 0; pass < 2; pass++ {
			for ci, cfg := range cfgs {
				fresh, err := sim.Run(sys, cfg)
				if err != nil {
					t.Fatal(err)
				}
				reused, err := eng.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("scenario %d cfg %d pass %d", i, ci, pass)
				if !reflect.DeepEqual(fresh.WorstLatency, reused.WorstLatency) ||
					!reflect.DeepEqual(fresh.TotalLatency, reused.TotalLatency) ||
					!reflect.DeepEqual(fresh.Completed, reused.Completed) ||
					!reflect.DeepEqual(fresh.Released, reused.Released) ||
					!reflect.DeepEqual(fresh.DeadlineMisses, reused.DeadlineMisses) ||
					!reflect.DeepEqual(fresh.MaxOccupancy, reused.MaxOccupancy) ||
					fresh.InFlight != reused.InFlight {
					t.Fatalf("%s: reused engine diverged from fresh run\nfresh: %+v\nreused: %+v", label, fresh, reused)
				}
				if cfg.RecordLatencies {
					for f := range fresh.Latencies {
						if len(fresh.Latencies[f]) != len(reused.Latencies[f]) {
							t.Fatalf("%s: flow %d latency count %d vs %d", label, f, len(fresh.Latencies[f]), len(reused.Latencies[f]))
						}
						for k := range fresh.Latencies[f] {
							if fresh.Latencies[f][k] != reused.Latencies[f][k] {
								t.Fatalf("%s: flow %d latency %d: %d vs %d", label, f, k, fresh.Latencies[f][k], reused.Latencies[f][k])
							}
						}
					}
				}
			}
		}
	}
}

// TestDifferentialSaturated widens the differential corpus with the
// adversarial regime the locked-arbitration fast path (DESIGN.md §13)
// lives in: every flow released at cycle 0, so contention domains stay
// busy for long stretches and the engine batches multi-cycle transfer
// windows. Oracle scenarios (spanning linkl/routl/buf) and shallow-buffer
// synthetic meshes of every (linkl, routl) class must stay bit-identical
// to the reference with the runtime invariants checked, and the fast
// path must engage in every class, so no class passes without
// exercising it.
func TestDifferentialSaturated(t *testing.T) {
	batches := map[platformClass]int{}
	for i := 0; i < 40; i++ {
		seed := oracle.DeriveSeed(0x5A70, int64(i))
		sc := oracle.Generate(seed, oracle.GenConfig{})
		sys, err := sc.System()
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		cfg := sim.Config{Duration: 6_000, RecordLatencies: i%3 == 0}
		ref, err := sim.RunReference(sys, cfg)
		if err != nil {
			t.Fatalf("scenario %d: reference: %v", i, err)
		}
		got, err := sim.Run(sys, sim.Checked(cfg))
		if err != nil {
			t.Fatalf("scenario %d: event-driven: %v", i, err)
		}
		mustEqualResults(t, fmt.Sprintf("saturated oracle scenario %d (%s)", i, sc), ref, got)
		batches[classOf(sys)] += got.Stats.FastPathBatches
	}
	for _, pc := range platformClasses {
		for _, buf := range []int{2, 3, 4, 8} {
			sys := synthMesh(t, pc.router(buf), workload.SynthConfig{NumFlows: 32, Seed: 21})
			cfg := sim.Config{Duration: 20_000}
			ref, err := sim.RunReference(sys, cfg)
			if err != nil {
				t.Fatalf("%s buf=%d: reference: %v", pc, buf, err)
			}
			got, err := sim.Run(sys, sim.Checked(cfg))
			if err != nil {
				t.Fatalf("%s buf=%d: event-driven: %v", pc, buf, err)
			}
			mustEqualResults(t, fmt.Sprintf("saturated mesh %s buf=%d", pc, buf), ref, got)
			batches[pc] += got.Stats.FastPathBatches
		}
	}
	for _, pc := range platformClasses {
		if batches[pc] == 0 {
			t.Errorf("fast path never engaged on %s across the saturated corpus; its differential is vacuous", pc)
		}
	}
}

// TestFastPathEngages asserts, for every (linkl, routl) class, that the
// locked-arbitration fast path actually fires on a saturated 4×4 mesh
// and covers a good share of its cycles — so the bit-identity
// guarantees above are exercised, not vacuous — and that tracing
// disables it (per-cycle trace interleaving cannot be reproduced from a
// batch) while still producing a byte-identical trace stream.
func TestFastPathEngages(t *testing.T) {
	for _, pc := range platformClasses {
		t.Run(pc.String(), func(t *testing.T) {
			sys := synthMesh(t, pc.router(4), workload.SynthConfig{NumFlows: 32, Seed: 9})
			cfg := sim.Config{Duration: 50_000}
			ref, err := sim.RunReference(sys, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.Run(sys, sim.Checked(cfg))
			if err != nil {
				t.Fatal(err)
			}
			mustEqualResults(t, "saturated scenario", ref, got)
			if got.Stats.FastPathBatches == 0 {
				t.Fatal("fast path did not engage on the saturated scenario")
			}
			if got.Stats.FastPathCycles < cfg.Duration/10 {
				t.Errorf("fast path covered only %d of %d cycles; expected a dominant share under saturation",
					got.Stats.FastPathCycles, cfg.Duration)
			}
			if ref.Stats != (sim.Stats{}) {
				t.Errorf("reference engine reported nonzero Stats: %+v", ref.Stats)
			}

			var refTrace, newTrace bytes.Buffer
			refCfg, newCfg := cfg, cfg
			refCfg.TraceWriter = &refTrace
			newCfg.TraceWriter = &newTrace
			if _, err := sim.RunReference(sys, refCfg); err != nil {
				t.Fatal(err)
			}
			traced, err := sim.Run(sys, newCfg)
			if err != nil {
				t.Fatal(err)
			}
			if traced.Stats.FastPathBatches != 0 {
				t.Errorf("fast path engaged on a traced run (%d batches); tracing must disable it", traced.Stats.FastPathBatches)
			}
			if refTrace.Len() == 0 || !bytes.Equal(refTrace.Bytes(), newTrace.Bytes()) {
				t.Errorf("traced saturated run diverged from reference (%d vs %d bytes)", refTrace.Len(), newTrace.Len())
			}
		})
	}
}
