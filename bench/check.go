package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"wormnoc/internal/core"
	"wormnoc/internal/exhaustive"
	"wormnoc/internal/oracle"
	"wormnoc/internal/sim"
	"wormnoc/internal/traffic"
)

// checkMix is an in-process verification workload: each op is one
// oracle.Check of a generated scenario, run on two workers the way
// oracle.Campaign runs them.
type checkMix struct {
	gen   oracle.GenConfig
	check oracle.CheckConfig
	// cost estimates a scenario's work under check from the input alone;
	// false leaves the scenario out of the workload.
	cost func(sc *oracle.Scenario, check oracle.CheckConfig) (float64, bool)
	// proof requires every check to end in a complete exhaustive proof.
	proof bool
}

// verifyMix: oracle-default scenarios and budget, the nightly campaign's
// per-scenario work. The budget fields spell out oracle's defaults so the
// traced replay can mirror them.
var verifyMix = checkMix{
	check: oracle.CheckConfig{Duration: 12_000, Restarts: 2, RefineSteps: 1, ProbesPerFlow: 4,
		EditChainLen: oracle.DefaultEditChainLen, Workers: 1},
	cost: verifyCost,
}

// proveMix: the `nocfuzz exhaust` defaults — meshes up to 2×2, up to 3
// flows, periods 6–18, no jitter — every scenario exhaustively proved.
var proveMix = checkMix{
	gen: oracle.GenConfig{MaxDim: 2, MaxFlows: 3, MaxBuf: 4, MaxLinkLatency: 1, MaxRouteLatency: -1,
		PeriodMin: 6, PeriodMax: 18, LenMin: 2, LenMax: 6, JitterProb: -1},
	check: oracle.CheckConfig{Duration: 2_000, Restarts: 2, RefineSteps: 1, ProbesPerFlow: 4,
		EditChainLen: oracle.DefaultEditChainLen, Workers: 1, ExhaustiveStates: 1 << 16},
	cost:  proveCost,
	proof: true,
}

// searchRuns approximates the simulations one phasing search of an
// n-flow system spends: per restart, one probe plus ProbesPerFlow per
// other flow and refinement pass.
func searchRuns(cfg oracle.CheckConfig, n int) float64 {
	return float64(cfg.Restarts * (1 + cfg.RefineSteps*cfg.ProbesPerFlow*(n-1)))
}

// verifyCost estimates a verify check's work as the flit-hops its
// phasing searches simulate: searches × runs × flit-hops per horizon.
func verifyCost(sc *oracle.Scenario, check oracle.CheckConfig) (float64, bool) {
	sys, err := sc.System()
	if err != nil {
		return 0, false
	}
	n := sys.NumFlows()
	var flitHops float64
	for i := range n {
		f := sys.Flow(i)
		flitHops += float64(check.Duration) / float64(f.Period) * float64(f.Length) * float64(len(sys.Route(i)))
	}
	return float64(n) * searchRuns(check, n) * flitHops, true
}

// maxProofCycles caps the cycles one prove scenario's exhaustive
// exploration simulates. About one generated scenario in twenty exceeds
// it, each taking up to seconds; left in, they would hold a run to a few
// hundred proofs, too few for a 99th percentile.
const maxProofCycles = 1 << 23

// proveCost estimates a prove check's work as the cycles it simulates:
// the reduced phasing grid at the exhaustive horizon, plus the searches
// at the attack's horizon and, for comparison, at the exhaustive one.
// Scenarios the exhaustive backend cannot prove within the state budget,
// or whose exploration exceeds maxProofCycles, are left out, so every op
// of the workload ends in a proof.
func proveCost(sc *oracle.Scenario, check oracle.CheckConfig) (float64, bool) {
	sys, err := sc.System()
	if err != nil {
		return 0, false
	}
	sp, err := exhaustive.Plan(sys)
	if err != nil || sp.ReducedGridSize > check.ExhaustiveStates {
		return 0, false
	}
	proof := float64(sp.ReducedGridSize) * float64(sp.SuggestedDuration)
	if proof > maxProofCycles {
		return 0, false
	}
	n := sys.NumFlows()
	return proof + float64(n)*searchRuns(check, n)*float64(check.Duration+sp.SuggestedDuration), true
}

// draw generates the scenario of one stream seed and its cost.
func (c checkMix) draw(seed int64) (*oracle.Scenario, float64, bool) {
	sc := oracle.Generate(seed, c.gen)
	cost, ok := c.cost(sc, c.check)
	return sc, cost, ok
}

// configFor is the check configuration of scenario sc, seeded like a
// campaign seeds it.
func (c checkMix) configFor(sc *oracle.Scenario) oracle.CheckConfig {
	cfg := c.check
	cfg.Seed = sc.Seed
	return cfg
}

// verdict rejects a report that is not a pass (and, for prove, a proof).
func (c checkMix) verdict(rep *oracle.Report) error {
	if len(rep.Violations) > 0 {
		return fmt.Errorf("%d violations, first %s", len(rep.Violations), rep.Violations[0])
	}
	if c.proof && (rep.Exhaustive == nil || !rep.Exhaustive.Complete) {
		return fmt.Errorf("no complete proof: %v", rep.Notes)
	}
	return nil
}

func (c checkMix) run(r *run) (*measured, error) {
	// Choosing the pool's scenarios is the benchmark's own work; set-up is
	// generating them.
	chosen, err := drawStrata(newStrata(r.sizes.pool, c.draw), r.seed, c.draw)
	if err != nil {
		return nil, err
	}
	pool, setups, err := timeSetups(r.sizes.setups, func() ([]*oracle.Scenario, error) {
		pool := make([]*oracle.Scenario, len(chosen))
		for i, sc := range chosen {
			pool[i] = oracle.Generate(sc.Seed, c.gen)
		}
		return pool, nil
	}, nil)
	if err != nil {
		return nil, err
	}

	// Set-up's garbage must not count in the timed phase's RSS.
	runtime.GC()
	debug.FreeOSMemory()
	reports := make([][32]byte, r.sizes.minOps)
	gc0, total0 := gcClock()
	t, err := closedLoop(2, r.sizes.minOps, r.seconds, os.Getpid(), func(_, i int) (time.Duration, error) {
		sc := pool[i%len(pool)]
		start := time.Now()
		rep, err := oracle.Check(sc, c.configFor(sc))
		lat := time.Since(start)
		if err != nil {
			return lat, err
		}
		if i < len(reports) {
			reports[i] = reportDigest(rep)
		}
		return lat, c.verdict(rep)
	})
	if err != nil {
		return nil, err
	}
	gc1, total1 := gcClock()

	m := &measured{timed: t, setups: setups}
	if m.digest, err = c.digest(pool, reports); err != nil {
		return nil, err
	}
	if r.trace {
		if m.layers, m.spans, err = c.replay(pool[:min(r.sizes.replay, len(pool))], r.log); err != nil {
			return nil, err
		}
		m.layers["runtime.gc_cpu_fraction"] = ratio(gc1-gc0, total1-total0)
	}
	return m, nil
}

// reportDigest hashes what a check found: the attack's reach and the
// exhaustive backend's worst cases, which a change that only makes the
// system faster must leave as they are.
func reportDigest(rep *oracle.Report) [32]byte {
	h := sha256.New()
	fmt.Fprintf(h, "attacked %d runs %d\n", rep.FlowsAttacked, rep.SimRuns)
	for _, f := range rep.Findings {
		fmt.Fprintf(h, "finding %s %s %d %d %d\n", f.Invariant, f.Method, f.Flow, f.Bound, f.Observed)
	}
	if ex := rep.Exhaustive; ex != nil {
		fmt.Fprintf(h, "exhaustive %d %v\n", ex.States, ex.Complete)
		for _, g := range ex.Gaps {
			fmt.Fprintf(h, "gap %d %d %d %v\n", g.Flow, g.Search, g.Exhaustive, g.Proven)
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// digest folds, in op order, each of the first ops' report digest and
// its scenario's bounds under every analysis.
func (c checkMix) digest(pool []*oracle.Scenario, reports [][32]byte) (string, error) {
	h := sha256.New()
	for i, rd := range reports {
		h.Write(rd[:])
		sys, err := pool[i%len(pool)].System()
		if err != nil {
			return "", err
		}
		for _, m := range core.Methods() {
			res, err := core.Analyze(sys, core.Options{Method: m})
			if err != nil {
				return "", err
			}
			for _, f := range res.Flows {
				fmt.Fprintf(h, "%s %d %d\n", m, f.R, f.Status)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// The traced replay below re-runs each op's check and then the public
// calls oracle.Check makes, one layer per span, with the check's own
// seeds and budgets. Two of those seeds are private to oracle: the edit
// chain draws from stream -1 and the exhaustive comparison searches
// from streams 2^32 + flow.
const (
	editChainStream        = -1
	exhaustiveSearchStream = int64(1) << 32
)

// replay times ops' checks single-threaded and splits each into layers.
func (c checkMix) replay(ops []*oracle.Scenario, log io.Writer) (map[string]float64, *tracer, error) {
	tr := newTracer()
	var t replayTotals
	start := time.Now()
	for op, sc := range ops {
		if err := c.replayOne(tr, int64(op), sc, &t); err != nil {
			return nil, nil, fmt.Errorf("replaying op %d: %w", op, err)
		}
	}
	wall := time.Since(start)

	stages := []string{"core.analyze_all", "core.incremental_chain", "sim.search", "sim.reference", "exhaustive.explore"}
	fmt.Fprintf(log, "bench: %s\n", tr.accounting("oracle.check", stages...))
	searchS := sum(tr.perCall("sim.search")) / 1e3
	exploreMS := tr.perCall("exhaustive.explore")
	n := float64(len(ops))
	return map[string]float64{
		"oracle.generate_ms.p50":         pct(tr.perCall("oracle.generate"), 50),
		"sim.search_ms.p50":              pct(tr.perCall("sim.search"), 50),
		"sim.runs_per_scenario":          t.searches / n,
		"sim.runs_per_s":                 ratio(t.searches, searchS),
		"sim.cycles_per_s":               ratio(t.cycles, searchS),
		"sim.reference_ms.p50":           pct(tr.perCall("sim.reference"), 50),
		"core.analyze_all_ms.p50":        pct(tr.perCall("core.analyze_all"), 50),
		"core.incremental_chain_ms.p50":  pct(tr.perCall("core.incremental_chain"), 50),
		"exhaustive.explore_ms.p50":      pct(exploreMS, 50),
		"exhaustive.explore_ms.p99":      pct(exploreMS, 99),
		"exhaustive.states_per_scenario": t.states / n,
		"exhaustive.states_per_s":        ratio(t.states, sum(exploreMS)/1e3),
		"exhaustive.reduction_ratio":     ratio(t.reduced, t.raw),
		"exhaustive.complete_ratio":      ratio(t.complete, t.explored),
		"oracle.residual_ms.p50":         pct(values(tr.residual("oracle.check", stages...)), 50),
		"trace.overhead_ratio":           tr.overhead(wall),
	}, tr, nil
}

// replayTotals sums the counts of a replay's simulations and explorations.
type replayTotals struct {
	searches, cycles                         float64 // phasing-search runs and the cycles they simulated
	states, raw, reduced, explored, complete float64 // exhaustive states, grid sizes and outcomes
}

// replayOne replays one op into tr and adds its counts to t.
func (c checkMix) replayOne(tr *tracer, op int64, sc *oracle.Scenario, t *replayTotals) error {
	cfg := c.configFor(sc)
	root := tr.begin(op, 0, "op")
	defer tr.end(root)
	tr.time(op, root, "oracle.generate", func() { oracle.Generate(sc.Seed, c.gen) })
	var rep *oracle.Report
	var err error
	tr.time(op, root, "oracle.check", func() { rep, err = oracle.Check(sc, cfg) })
	if err != nil {
		return err
	}
	if err := c.verdict(rep); err != nil {
		return err
	}

	sys, err := sc.System()
	if err != nil {
		return err
	}
	var results map[core.Method]*core.Result
	tr.time(op, root, "core.analyze_all", func() { results, err = analyzeAll(sys, sc.Doc.Mesh.BufDepth) })
	if err != nil {
		return err
	}
	tr.time(op, root, "core.incremental_chain", func() { err = incrementalChain(sys, cfg) })
	if err != nil {
		return err
	}
	jitter := false
	for i := range sys.NumFlows() {
		jitter = jitter || sys.Flow(i).Jitter > 0
	}
	for target := range sys.NumFlows() {
		if !schedulableUnder(results, target, core.Methods()...) {
			continue
		}
		base := sim.Config{Duration: cfg.Duration, InjectJitter: jitter, JitterSeed: oracle.DeriveSeed(cfg.Seed, int64(target)*2+1)}
		s, err := timedSearch(tr, op, root, sys, cfg, base, target, oracle.DeriveSeed(cfg.Seed, int64(target)*2))
		if err != nil {
			return err
		}
		t.searches += float64(s.Runs)
		t.cycles += float64(s.Runs) * float64(cfg.Duration)
		base.Offsets = s.Offsets
		tr.time(op, root, "sim.reference", func() { _, err = sim.RunReference(sys, base) })
		if err != nil {
			return err
		}
	}
	if cfg.ExhaustiveStates == 0 {
		return nil
	}
	var ex *exhaustive.Result
	tr.time(op, root, "exhaustive.explore", func() {
		ex, err = exhaustive.Explore(sys, exhaustive.Config{MaxStates: cfg.ExhaustiveStates, Workers: cfg.Workers, Reduce: cfg.ExhaustiveReduce})
	})
	if err != nil {
		return err
	}
	t.explored++
	t.states += float64(ex.States)
	t.raw += float64(ex.Reductions.RawGridSize)
	t.reduced += float64(ex.Reductions.ReducedGridSize)
	if ex.Complete {
		t.complete++
	}
	for i := range sys.NumFlows() {
		if !schedulableUnder(results, i, core.IBN, core.XLWX) {
			continue
		}
		s, err := timedSearch(tr, op, root, sys, cfg, sim.Config{Duration: ex.Duration}, i, oracle.DeriveSeed(cfg.Seed, exhaustiveSearchStream+int64(i)))
		if err != nil {
			return err
		}
		t.searches += float64(s.Runs)
		t.cycles += float64(s.Runs) * float64(ex.Duration)
	}
	return nil
}

// timedSearch runs one phasing search the way oracle.Check runs it,
// inside a sim.search span.
func timedSearch(tr *tracer, op int64, root int, sys *traffic.System, cfg oracle.CheckConfig, base sim.Config, target int, seed int64) (*sim.SearchResult, error) {
	var s *sim.SearchResult
	var err error
	tr.time(op, root, "sim.search", func() {
		s, err = sim.SearchWorstCase(sys, sim.SearchConfig{
			Base:          base,
			Target:        target,
			Restarts:      cfg.Restarts,
			RefineSteps:   cfg.RefineSteps,
			ProbesPerFlow: cfg.ProbesPerFlow,
			Workers:       1,
			Rand:          rand.New(rand.NewSource(seed)),
		})
	})
	return s, err
}

// analyzeAll makes oracle.Check's analyses: every method on two
// independently built engines, and IBN over the buffer-depth ladder.
func analyzeAll(sys *traffic.System, buf int) (map[core.Method]*core.Result, error) {
	results := make(map[core.Method]*core.Result)
	eng := core.NewEngine(sys)
	for _, e := range []*core.Engine{eng, core.NewEngine(sys)} {
		for _, m := range core.Methods() {
			res, err := e.Analyze(core.Options{Method: m})
			if err != nil {
				return nil, err
			}
			results[m] = res
		}
	}
	depths := []int{buf, buf + 1, buf * 2, buf + 8}
	slices.Sort(depths)
	for _, d := range slices.Compact(depths) {
		if _, err := eng.Analyze(core.Options{Method: core.IBN, BufDepth: d}); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// incrementalChain replays oracle.Check's random edit chain through one
// incremental engine and, step by step, through from-scratch engines.
func incrementalChain(sys *traffic.System, cfg oracle.CheckConfig) error {
	deltas, _, err := oracle.RandomDeltas(oracle.DeriveSeed(cfg.Seed, editChainStream), sys, cfg.EditChainLen)
	if err != nil {
		return err
	}
	inc := core.NewIncremental(sys)
	scratch := sys
	for _, d := range deltas {
		if err := inc.Apply(d); err != nil {
			return err
		}
		if scratch, err = core.ApplyDelta(scratch, d); err != nil {
			return err
		}
		eng := core.NewEngine(scratch)
		for _, m := range core.Methods() {
			if _, err := inc.Analyze(context.Background(), core.Options{Method: m}); err != nil {
				return err
			}
			if _, err := eng.Analyze(core.Options{Method: m}); err != nil {
				return err
			}
		}
	}
	return nil
}

// schedulableUnder reports whether any of methods bounds flow i.
func schedulableUnder(results map[core.Method]*core.Result, i int, methods ...core.Method) bool {
	for _, m := range methods {
		if results[m].Flows[i].Status == core.Schedulable {
			return true
		}
	}
	return false
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
