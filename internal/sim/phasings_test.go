package sim_test

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"

	"wormnoc/internal/noc"
	"wormnoc/internal/sim"
	"wormnoc/internal/traffic"
	"wormnoc/internal/workload"
)

// phasingCase is one Eval batch: phasing i simulates base with offsets
// full[i]; set writes it the way a caller would, over base.Offsets.
type phasingCase struct {
	name string
	sys  *traffic.System
	base sim.Config
	busy bool
	full [][]noc.Cycles
	set  func(i int, off []noc.Cycles)
}

func phasingCases(t testing.TB) []phasingCase {
	sysA := synth4x4(t, workload.SynthConfig{NumFlows: 16, Seed: 3})
	didactic := workload.Didactic(2)
	var cases []phasingCase

	// Every offset written by set.
	var all [][]noc.Cycles
	for i := 0; i < 40; i++ {
		all = append(all, staggeredOffsets(16, 20_000, int64(i)))
	}
	cases = append(cases, phasingCase{"synth16", sysA, sim.Config{Duration: 20_000}, false, all,
		func(i int, off []noc.Cycles) { copy(off, all[i]) }})

	// One flow swept over non-zero base offsets of an overloaded line:
	// τa (C > T) keeps the link busy, so τb starves and is censored while
	// τa's own packets miss their deadlines, and no busy period drains.
	overload := traffic.MustSystem(noc.MustMesh(4, 1, noc.RouterConfig{BufDepth: 2, LinkLatency: 1}), []traffic.Flow{
		{Name: "a", Priority: 1, Period: 40, Deadline: 40, Length: 45, Src: 0, Dst: 3},
		{Name: "b", Priority: 2, Period: 100, Deadline: 100, Length: 10, Src: 1, Dst: 3},
	})
	var swept [][]noc.Cycles
	for i := 0; i < 30; i++ {
		swept = append(swept, []noc.Cycles{noc.Cycles(i) * 3, 25})
	}
	for _, busy := range []bool{false, true} {
		cases = append(cases, phasingCase{"overload", overload, sim.Config{Duration: 1_000, Offsets: []noc.Cycles{0, 25}}, busy, swept,
			func(i int, off []noc.Cycles) { off[0] = noc.Cycles(i) * 3 }})
	}

	// Table II's sweep of τ1, full horizon and busy periods.
	var table2 [][]noc.Cycles
	for i := 0; i < 150; i++ {
		table2 = append(table2, []noc.Cycles{noc.Cycles(i), 0, 0})
	}
	for _, busy := range []bool{false, true} {
		cases = append(cases, phasingCase{"didactic", didactic, sim.Config{Duration: 2_000}, busy, table2,
			func(i int, off []noc.Cycles) { off[0] = noc.Cycles(i) }})
	}
	return cases
}

// owedPackets transcribes the censor rule: the periodic releases of a
// flow with a full deadline window before the last simulated cycle.
func owedPackets(off noc.Cycles, f traffic.Flow, duration noc.Cycles) int {
	last := duration - 1 - f.Deadline
	if off > last {
		return 0
	}
	return int((last-off)/f.Period + 1)
}

// sequentialFold folds a plain Engine.Run (or RunBusyPeriod) loop over
// phasings[:n], first strictly greater latency wins.
func sequentialFold(t testing.TB, c phasingCase, n int) *sim.Fold {
	nf := c.sys.NumFlows()
	want := &sim.Fold{
		Worst:    make([]noc.Cycles, nf),
		At:       make([]int, nf),
		Censored: make([]int64, nf),
		Misses:   make([]int64, nf),
	}
	for k := range want.Worst {
		want.Worst[k], want.At[k] = -1, -1
	}
	eng := sim.NewEngine(c.sys)
	for i, off := range c.full[:n] {
		cfg := c.base
		cfg.Offsets = off
		run := eng.Run
		if c.busy {
			run = eng.RunBusyPeriod
		}
		res, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		drained := c.busy && res.Stats.StoppedAt < cfg.Duration
		for k := 0; k < nf; k++ {
			if res.WorstLatency[k] > want.Worst[k] {
				want.Worst[k], want.At[k] = res.WorstLatency[k], i
			}
			if !drained && res.Completed[k] < owedPackets(off[k], c.sys.Flow(k), cfg.Duration) {
				want.Censored[k]++
			}
			want.Misses[k] += int64(res.DeadlineMisses[k])
		}
		want.Runs++
	}
	return want
}

func evalCase(p *sim.Phasings, ctx context.Context, c phasingCase) (*sim.Fold, error) {
	if c.busy {
		return p.EvalBusyPeriods(ctx, c.base, len(c.full), c.set)
	}
	return p.Eval(ctx, c.base, len(c.full), c.set)
}

// TestPhasingsMatchesSequential holds Eval's fold equal to a sequential
// engine loop over the same phasings at several worker counts, and on
// a second call to the same (now warm) evaluator.
func TestPhasingsMatchesSequential(t *testing.T) {
	censored := false
	for _, c := range phasingCases(t) {
		want := sequentialFold(t, c, len(c.full))
		for _, k := range want.Censored {
			censored = censored || k > 0
		}
		for _, workers := range []int{1, 2, 7} {
			p := sim.NewPhasings(c.sys, workers)
			for call := 0; call < 2; call++ {
				got, err := evalCase(p, context.Background(), c)
				if err != nil {
					t.Fatalf("%s busy=%v workers=%d: %v", c.name, c.busy, workers, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s busy=%v workers=%d call %d: fold diverged from sequential runs\nwant %+v\ngot  %+v",
						c.name, c.busy, workers, call, want, got)
				}
			}
		}
	}
	if !censored {
		t.Error("no case censors a packet; the censor rule is untested")
	}
}

// TestPhasingsTieLowestIndex puts the worst phasing of a flow at two
// indices in different chunks: At must name the lower one at any
// worker count.
func TestPhasingsTieLowestIndex(t *testing.T) {
	c := phasingCases(t)[0]
	want := sequentialFold(t, c, len(c.full))
	const f, lo, hi = 3, 11, 29
	worst := c.full[want.At[f]]
	for i, o := range c.full {
		if i != want.At[f] && sequentialFold(t, phasingCase{sys: c.sys, base: c.base, full: [][]noc.Cycles{o}}, 1).Worst[f] == want.Worst[f] {
			t.Fatalf("phasing %d ties the worst of flow %d; the test needs a unique worst", i, f)
		}
	}
	// Every other slot holds a phasing strictly below the worst.
	var others [][]noc.Cycles
	for i, o := range c.full {
		if i != want.At[f] {
			others = append(others, o)
		}
	}
	list := make([][]noc.Cycles, 0, len(c.full)+1)
	for i := 0; len(list) < len(c.full)+1; i++ {
		if len(list) == lo || len(list) == hi {
			list = append(list, worst)
		}
		list = append(list, others[i%len(others)])
	}
	for _, workers := range []int{1, 2, 7} {
		got, err := sim.NewPhasings(c.sys, workers).Eval(context.Background(), c.base, len(list),
			func(i int, off []noc.Cycles) { copy(off, list[i]) })
		if err != nil {
			t.Fatal(err)
		}
		if got.Worst[f] != want.Worst[f] || got.At[f] != lo {
			t.Errorf("workers=%d: flow %d worst %d at %d, want %d at %d (tie at %d)",
				workers, f, got.Worst[f], got.At[f], want.Worst[f], lo, hi)
		}
	}
}

// TestPhasingsCancel checks that a cancelled batch returns
// context.Canceled with the fold of the chunks that completed.
func TestPhasingsCancel(t *testing.T) {
	c := phasingCases(t)[0]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const stopAt = 10
	// One worker, one phasing per chunk: phasings 0..stopAt complete.
	got, err := sim.NewPhasings(c.sys, 1).Eval(ctx, c.base, len(c.full), func(i int, off []noc.Cycles) {
		if i == stopAt {
			cancel()
		}
		copy(off, c.full[i])
	})
	if err != context.Canceled {
		t.Fatalf("Eval returned %v, want context.Canceled", err)
	}
	if want := sequentialFold(t, c, stopAt+1); !reflect.DeepEqual(got, want) {
		t.Errorf("cancelled fold diverged from the completed phasings\nwant %+v\ngot  %+v", want, got)
	}

	got, err = sim.NewPhasings(c.sys, 2).Eval(ctx, c.base, len(c.full), c.set)
	if err != context.Canceled || got.Runs != 0 {
		t.Errorf("pre-cancelled Eval: err %v, %d runs; want context.Canceled and none", err, got.Runs)
	}
}

// TestPhasingsValidation pins the batch-level input contract: trace
// writers, invalid bases and jittered busy periods are rejected before
// any phasing runs; a negative offset from set stops the batch.
func TestPhasingsValidation(t *testing.T) {
	sys := synth4x4(t, workload.SynthConfig{NumFlows: 8, Seed: 5})
	cases := []struct {
		name string
		base sim.Config
		busy bool
	}{
		{"trace writer", sim.Config{Duration: 10, TraceWriter: discardWriter{}}, false},
		{"bad duration", sim.Config{Duration: 0}, false},
		{"short offsets", sim.Config{Duration: 10, Offsets: make([]noc.Cycles, 3)}, false},
		{"overflowing horizon", sim.Config{Duration: math.MaxInt64 - 1}, false},
		{"jittered busy period", sim.Config{Duration: 10, InjectJitter: true}, true},
	}
	for _, tc := range cases {
		ran := false
		set := func(int, []noc.Cycles) { ran = true }
		p := sim.NewPhasings(sys, 2)
		var err error
		if tc.busy {
			_, err = p.EvalBusyPeriods(context.Background(), tc.base, 4, set)
		} else {
			_, err = p.Eval(context.Background(), tc.base, 4, set)
		}
		if err == nil {
			t.Errorf("%s: Eval accepted an invalid base", tc.name)
		}
		if ran {
			t.Errorf("%s: Eval ran a phasing despite the invalid base", tc.name)
		}
	}
	fold, err := sim.NewPhasings(sys, 1).Eval(context.Background(), sim.Config{Duration: 100}, 4,
		func(i int, off []noc.Cycles) { off[2] = noc.Cycles(1 - i) })
	if err == nil || fold.Runs != 2 {
		t.Errorf("negative offset at phasing 2: err %v after %d runs, want an error after 2", err, fold.Runs)
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestPhasingsSteadyStateAllocs pins the evaluator's zero-alloc steady
// state: a warm batch allocates a small constant (the pool's
// bookkeeping), i.e. ~0 allocations per phasing, the contract that lets
// the phasing explorers run tens of thousands of simulations cheaply.
func TestPhasingsSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting run skipped in -short mode")
	}
	sys := synth4x4(t, workload.SynthConfig{NumFlows: 16, Seed: 6})
	const n = 64
	offs := make([][]noc.Cycles, n)
	for i := range offs {
		offs[i] = staggeredOffsets(16, 5_000, int64(i))
	}
	p := sim.NewPhasings(sys, 1)
	base := sim.Config{Duration: 5_000}
	set := func(i int, off []noc.Cycles) { copy(off, offs[i]) }
	for i := 0; i < 3; i++ {
		if _, err := p.Eval(context.Background(), base, n, set); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := p.Eval(context.Background(), base, n, set); err != nil {
			t.Fatal(err)
		}
	})
	if perPhasing := allocs / n; perPhasing > 0.1 {
		t.Errorf("warm Eval allocates %.2f objects/phasing (%.0f per %d-phasing batch), want ~0",
			perPhasing, allocs, n)
	}
}

// TestSweepOffsetsMatchesSequential holds SweepOffsets equal to a
// sequential engine loop over the same grid at several GOMAXPROCS
// values, the worker count the sweep runs at.
func TestSweepOffsetsMatchesSequential(t *testing.T) {
	sys := workload.Didactic(2)
	base := sim.Config{Duration: 4_000, Offsets: []noc.Cycles{0, 7, 3}}
	const flow, maxOffset, step = 1, 300, 7
	want := &sim.SweepResult{
		Worst:       []noc.Cycles{-1, -1, -1},
		WorstOffset: make([]noc.Cycles, 3),
	}
	eng := sim.NewEngine(sys)
	for off := noc.Cycles(0); off < maxOffset; off += step {
		cfg := base
		cfg.Offsets = append([]noc.Cycles(nil), base.Offsets...)
		cfg.Offsets[flow] = off
		res, err := eng.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k, w := range res.WorstLatency {
			if w > want.Worst[k] {
				want.Worst[k], want.WorstOffset[k] = w, off
			}
		}
		want.Runs++
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		got, err := sim.SweepOffsets(sys, base, flow, maxOffset, step)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS=%d: sweep diverged from sequential runs\nwant %+v\ngot  %+v", procs, want, got)
		}
	}
}

// TestSweepOffsetsHugeStep sweeps with a step past half of int64: the
// second offset is the last below maxOffset, and the grid must end
// there rather than wrap negative and keep going.
func TestSweepOffsetsHugeStep(t *testing.T) {
	res, err := sim.SweepOffsets(workload.Didactic(2), sim.Config{Duration: 2000}, 0, math.MaxInt64, math.MaxInt64/2+1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 2 {
		t.Errorf("runs = %d, want 2", res.Runs)
	}
}

// BenchmarkRunManySequential is the "before" of the phasing-batch pair:
// the 64 phasings of a refinement sweep evaluated one engine run at a
// time. The pair keeps the name of the batch runner it first measured.
func BenchmarkRunManySequential(b *testing.B) {
	b.Run("campaign64", func(b *testing.B) {
		sys, base, offs := campaignPhasings(b)
		eng := sim.NewEngine(sys)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, off := range offs {
				cfg := base
				cfg.Offsets = off
				if _, err := eng.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkRunMany measures the same 64 phasings as one warm Phasings
// batch on GOMAXPROCS engines, the steady state of the phasing
// explorers. The speedup over BenchmarkRunManySequential is the
// parallelism win recorded in BENCH_sim.json (on a single-core machine
// the pair degenerates to parity; per-phasing cost, not the ratio, is
// the tracked number there).
func BenchmarkRunMany(b *testing.B) {
	b.Run("campaign64", func(b *testing.B) {
		sys, base, offs := campaignPhasings(b)
		p := sim.NewPhasings(sys, 0)
		set := func(i int, off []noc.Cycles) { copy(off, offs[i]) }
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Eval(context.Background(), base, len(offs), set); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// campaignPhasings is a 64-phasing batch over one system, the shape of
// a phasing-search refinement sweep.
func campaignPhasings(b testing.TB) (*traffic.System, sim.Config, [][]noc.Cycles) {
	sys := synth4x4(b, workload.SynthConfig{NumFlows: 32, Seed: 9})
	offs := make([][]noc.Cycles, 64)
	for i := range offs {
		offs[i] = staggeredOffsets(32, 10_000, int64(i))
	}
	return sys, sim.Config{Duration: 10_000}, offs
}

// TestRunManyBenchSpecsAgree anchors the RunMany benchmark pair: both
// sides compute the same per-flow maxima.
func TestRunManyBenchSpecsAgree(t *testing.T) {
	sys, base, offs := campaignPhasings(t)
	c := phasingCase{sys: sys, base: base, full: offs[:16]}
	got, err := sim.NewPhasings(sys, 0).Eval(context.Background(), base, len(c.full),
		func(i int, off []noc.Cycles) { copy(off, offs[i]) })
	if err != nil {
		t.Fatal(err)
	}
	if want := sequentialFold(t, c, len(c.full)); !reflect.DeepEqual(got, want) {
		t.Errorf("batched fold differs from direct engine runs\nwant %+v\ngot  %+v", want, got)
	}
}
