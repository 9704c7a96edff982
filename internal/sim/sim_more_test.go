package sim_test

import (
	"bufio"
	"math"
	"strings"
	"testing"

	"wormnoc/internal/noc"
	"wormnoc/internal/sim"
	"wormnoc/internal/traffic"
	"wormnoc/internal/workload"
)

func simpleSystem(t *testing.T) *traffic.System {
	t.Helper()
	topo := noc.MustMesh(4, 1, noc.RouterConfig{BufDepth: 2, LinkLatency: 1, RouteLatency: 0})
	return traffic.MustSystem(topo, []traffic.Flow{
		{Name: "a", Priority: 1, Period: 100, Deadline: 100, Length: 10, Src: 0, Dst: 3},
		{Name: "b", Priority: 2, Period: 200, Deadline: 200, Length: 10, Src: 0, Dst: 3},
	})
}

func TestRunConfigValidation(t *testing.T) {
	sys := simpleSystem(t)
	if _, err := sim.Run(sys, sim.Config{Duration: 0}); err == nil {
		t.Error("zero duration must fail")
	}
	if _, err := sim.Run(sys, sim.Config{Duration: 100, Offsets: []noc.Cycles{1}}); err == nil {
		t.Error("offset count mismatch must fail")
	}
	if _, err := sim.Run(sys, sim.Config{Duration: 100, Offsets: []noc.Cycles{-1, 0}}); err == nil {
		t.Error("negative offset must fail")
	}

	// Flit sequence numbers are int32: a longer packet would wrap a body
	// flit to seq 0 and charge it routl as a header. Every entry point
	// must reject it, naming the flow; the longest representable length
	// is accepted.
	topo := noc.MustMesh(2, 1, noc.RouterConfig{BufDepth: 2, LinkLatency: 1, RouteLatency: 1})
	for _, tc := range []struct {
		length int64
		ok     bool
	}{{math.MaxInt32, true}, {math.MaxInt32 + 1, false}} {
		long := traffic.MustSystem(topo, []traffic.Flow{
			{Name: "short", Priority: 1, Period: 100, Deadline: 100, Length: 4, Src: 0, Dst: 1},
			{Name: "huge", Priority: 2, Period: 1 << 40, Deadline: 1 << 40, Length: int(tc.length), Src: 0, Dst: 1},
		})
		cfg := sim.Config{Duration: 100}
		runs := map[string]func() (*sim.Result, error){
			"Run":          func() (*sim.Result, error) { return sim.Run(long, cfg) },
			"RunReference": func() (*sim.Result, error) { return sim.RunReference(long, cfg) },
			"Engine.Run":   func() (*sim.Result, error) { return sim.NewEngine(long).Run(cfg) },
		}
		for name, run := range runs {
			_, err := run()
			switch {
			case tc.ok && err != nil:
				t.Errorf("%s: length %d rejected: %v", name, tc.length, err)
			case !tc.ok && err == nil:
				t.Errorf("%s: length %d accepted", name, tc.length)
			case !tc.ok && !strings.Contains(err.Error(), `"huge"`):
				t.Errorf("%s: error %q does not name the flow", name, err)
			}
		}
	}
}

func TestMaxPacketsPerFlow(t *testing.T) {
	sys := simpleSystem(t)
	res, err := sim.Run(sys, sim.Config{Duration: 10_000, MaxPacketsPerFlow: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if res.Released[i] != 3 || res.Completed[i] != 3 {
			t.Errorf("flow %d: released %d completed %d, want 3/3", i, res.Released[i], res.Completed[i])
		}
	}
}

func TestPeriodicReleaseCount(t *testing.T) {
	sys := simpleSystem(t)
	res, err := sim.Run(sys, sim.Config{Duration: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// Flow a: releases at 0,100,...,900 = 10; flow b: 0,200,...,800 = 5.
	if res.Released[0] != 10 || res.Released[1] != 5 {
		t.Errorf("released = %v, want [10 5]", res.Released)
	}
}

func TestOffsetsDelayReleases(t *testing.T) {
	sys := simpleSystem(t)
	res, err := sim.Run(sys, sim.Config{
		Duration:          1000,
		Offsets:           []noc.Cycles{950, 999},
		MaxPacketsPerFlow: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Released[0] != 1 || res.Released[1] != 1 {
		t.Fatalf("released = %v", res.Released)
	}
	// Neither packet can complete before the horizon.
	if res.Completed[0] != 0 && res.WorstLatency[0] < 0 {
		t.Errorf("unexpected completion: %+v", res)
	}
	if res.InFlight == 0 {
		t.Error("late releases should still be in flight")
	}
}

func TestDeadlineMissCounting(t *testing.T) {
	// Low-priority flow with a deadline well below the blocking it will
	// suffer from the heavy high-priority flow sharing its whole route.
	topo := noc.MustMesh(4, 1, noc.RouterConfig{BufDepth: 2, LinkLatency: 1, RouteLatency: 0})
	sys := traffic.MustSystem(topo, []traffic.Flow{
		{Name: "hog", Priority: 1, Period: 100, Deadline: 100, Length: 80, Src: 0, Dst: 3},
		{Name: "meek", Priority: 2, Period: 400, Deadline: 20, Length: 10, Src: 0, Dst: 3},
	})
	res, err := sim.Run(sys, sim.Config{Duration: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineMisses[1] == 0 {
		t.Errorf("meek should miss deadlines: worst=%d completed=%d",
			res.WorstLatency[1], res.Completed[1])
	}
	if res.DeadlineMisses[0] != 0 {
		t.Errorf("hog should not miss: %+v", res.DeadlineMisses)
	}
}

func TestMeanLatency(t *testing.T) {
	sys := simpleSystem(t)
	res, err := sim.Run(sys, sim.Config{Duration: 5000})
	if err != nil {
		t.Fatal(err)
	}
	m := res.MeanLatency(0)
	if m < float64(sys.C(0)) {
		t.Errorf("mean %f below zero-load %d", m, sys.C(0))
	}
	if m > float64(res.WorstLatency[0]) {
		t.Errorf("mean %f above worst %d", m, res.WorstLatency[0])
	}
	empty, err := sim.Run(sys, sim.Config{Duration: 5000, Offsets: []noc.Cycles{6000, 6000}})
	if err != nil {
		t.Fatal(err)
	}
	if empty.MeanLatency(0) != -1 {
		t.Error("MeanLatency of flow with no completions must be -1")
	}
}

func TestTraceWriter(t *testing.T) {
	topo := noc.MustMesh(2, 1, noc.RouterConfig{BufDepth: 2, LinkLatency: 1, RouteLatency: 0})
	sys := traffic.MustSystem(topo, []traffic.Flow{
		{Name: "a", Priority: 1, Period: 1000, Deadline: 1000, Length: 3, Src: 0, Dst: 1},
	})
	var sb strings.Builder
	_, err := sim.Run(sys, sim.Config{Duration: 100, MaxPacketsPerFlow: 1, TraceWriter: &sb})
	if err != nil {
		t.Fatal(err)
	}
	// 3 flits × 3 links = 9 transfers.
	lines := 0
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		fields := strings.Split(sc.Text(), ",")
		if len(fields) != 5 {
			t.Fatalf("bad trace line %q", sc.Text())
		}
		lines++
	}
	if lines != 9 {
		t.Errorf("trace has %d transfers, want 9", lines)
	}
}

// TestFastForwardEquivalence: sparse periodic traffic simulated over a
// long horizon (exercising the idle fast-forward) produces the same
// latencies as the zero-load prediction.
func TestFastForwardEquivalence(t *testing.T) {
	topo := noc.MustMesh(4, 4, noc.RouterConfig{BufDepth: 4, LinkLatency: 1, RouteLatency: 1})
	sys := traffic.MustSystem(topo, []traffic.Flow{
		{Name: "sparse", Priority: 1, Period: 1_000_000, Deadline: 1_000_000, Length: 64, Src: 0, Dst: 15},
	})
	res, err := sim.Run(sys, sim.Config{Duration: 50_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed[0] != 50 {
		t.Fatalf("completed %d packets, want 50", res.Completed[0])
	}
	if res.WorstLatency[0] != sys.C(0) {
		t.Errorf("worst = %d, want C = %d", res.WorstLatency[0], sys.C(0))
	}
}

// TestSameSourceArbitration: two flows injecting at one node share the
// injection link; the higher-priority one wins and meets C.
func TestSameSourceArbitration(t *testing.T) {
	topo := noc.MustMesh(4, 1, noc.RouterConfig{BufDepth: 2, LinkLatency: 1, RouteLatency: 0})
	sys := traffic.MustSystem(topo, []traffic.Flow{
		{Name: "hi", Priority: 1, Period: 10_000, Deadline: 10_000, Length: 50, Src: 0, Dst: 3},
		{Name: "lo", Priority: 2, Period: 10_000, Deadline: 10_000, Length: 50, Src: 0, Dst: 2},
	})
	res, err := sim.Run(sys, sim.Config{Duration: 10_000, MaxPacketsPerFlow: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.WorstLatency[0] != sys.C(0) {
		t.Errorf("hi delayed at its own source: %d vs C %d", res.WorstLatency[0], sys.C(0))
	}
	if res.WorstLatency[1] <= sys.C(1) {
		t.Errorf("lo should be delayed behind hi: %d vs C %d", res.WorstLatency[1], sys.C(1))
	}
}

// TestSweepErrors covers the sweep's validation paths.
func TestSweepErrors(t *testing.T) {
	sys := workload.Didactic(2)
	if _, err := sim.SweepOffsets(sys, sim.Config{Duration: 100}, -1, 10, 1); err == nil {
		t.Error("bad flow index must fail")
	}
	if _, err := sim.SweepOffsets(sys, sim.Config{Duration: 100}, 0, 0, 1); err == nil {
		t.Error("zero maxOffset must fail")
	}
	if _, err := sim.SweepOffsets(sys, sim.Config{Duration: 100}, 0, 10, 0); err == nil {
		t.Error("zero step must fail")
	}
	var sb strings.Builder
	if _, err := sim.SweepOffsets(sys, sim.Config{Duration: 100, TraceWriter: &sb}, 0, 10, 1); err == nil {
		t.Error("tracing during sweep must fail")
	}
}

// TestSweepPreservesBaseOffsets: non-swept flows keep their base offsets.
func TestSweepPreservesBaseOffsets(t *testing.T) {
	sys := simpleSystem(t)
	base := sim.Config{Duration: 2_000, Offsets: []noc.Cycles{0, 1500}}
	res, err := sim.SweepOffsets(sys, base, 0, 50, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 5 {
		t.Errorf("runs = %d, want 5", res.Runs)
	}
	// Flow b releases at 1500 with period 200: packets at 1500, 1700,
	// 1900 → some must have completed.
	if res.Worst[1] < 0 {
		t.Error("flow b never completed — base offsets were not preserved")
	}
}

// TestWormholeOrdering: flits arrive in order and packets of one flow
// complete in release order (no overtaking within a flow).
func TestWormholeOrdering(t *testing.T) {
	topo := noc.MustMesh(6, 1, noc.RouterConfig{BufDepth: 2, LinkLatency: 1, RouteLatency: 0})
	sys := traffic.MustSystem(topo, []traffic.Flow{
		{Name: "x", Priority: 1, Period: 50, Deadline: 50, Length: 60, Src: 0, Dst: 5},
	})
	// C = 66 > period 50: packets queue at the source back to back, but
	// each must still be delivered completely and in order, with latency
	// growing by the accumulated queueing delay (16 cycles per packet).
	res, err := sim.Run(sys, sim.Config{Duration: 5_000, MaxPacketsPerFlow: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed[0] != 10 {
		t.Fatalf("completed %d, want 10", res.Completed[0])
	}
	// Packet k is released at 50k but can only start after its
	// predecessor's tail clears the source: worst (10th) latency is
	// C + 9·(60·linkl − 50) = 66 + 144.
	if want := sys.C(0) + 9*(60-50); res.WorstLatency[0] != want {
		t.Errorf("worst = %d, want %d", res.WorstLatency[0], want)
	}
	if res.DeadlineMisses[0] != 10 {
		t.Errorf("all 10 packets must miss D=50, got %d", res.DeadlineMisses[0])
	}
}

// TestRecordLatencies: with recording enabled every completed packet's
// latency is kept, consistent with the aggregate statistics.
func TestRecordLatencies(t *testing.T) {
	sys := simpleSystem(t)
	res, err := sim.Run(sys, sim.Config{Duration: 5_000, RecordLatencies: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sys.NumFlows(); i++ {
		if len(res.Latencies[i]) != res.Completed[i] {
			t.Fatalf("flow %d: %d recorded latencies for %d completions",
				i, len(res.Latencies[i]), res.Completed[i])
		}
		var total noc.Cycles
		worst := noc.Cycles(-1)
		for _, l := range res.Latencies[i] {
			total += l
			if l > worst {
				worst = l
			}
		}
		if total != res.TotalLatency[i] || worst != res.WorstLatency[i] {
			t.Errorf("flow %d: recorded stats disagree with aggregates", i)
		}
	}
	// Recording off: no slices allocated.
	res2, err := sim.Run(sys, sim.Config{Duration: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Latencies != nil {
		t.Error("latencies recorded without RecordLatencies")
	}
}
