package traffic

import (
	"math"
	"strings"
	"testing"

	"wormnoc/internal/noc"
)

func testTopo(t *testing.T) *noc.Topology {
	t.Helper()
	return noc.MustMesh(4, 4, noc.RouterConfig{BufDepth: 2, LinkLatency: 1, RouteLatency: 0})
}

func validFlow() Flow {
	return Flow{Name: "f", Priority: 1, Period: 1000, Deadline: 1000, Length: 10, Src: 0, Dst: 5}
}

func TestFlowValidate(t *testing.T) {
	if err := validFlow().Validate(); err != nil {
		t.Fatalf("valid flow rejected: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*Flow)
	}{
		{"priority 0", func(f *Flow) { f.Priority = 0 }},
		{"negative priority", func(f *Flow) { f.Priority = -3 }},
		{"zero period", func(f *Flow) { f.Period = 0 }},
		{"zero deadline", func(f *Flow) { f.Deadline = 0 }},
		{"deadline > period", func(f *Flow) { f.Deadline = f.Period + 1 }},
		{"negative jitter", func(f *Flow) { f.Jitter = -1 }},
		{"zero length", func(f *Flow) { f.Length = 0 }},
		{"self loop", func(f *Flow) { f.Dst = f.Src }},
	}
	for _, m := range mutations {
		f := validFlow()
		m.mut(&f)
		if err := f.Validate(); err == nil {
			t.Errorf("%s: expected validation error", m.name)
		}
	}
}

func TestZeroLoadLatencyEquation1(t *testing.T) {
	cases := []struct {
		cfg      noc.RouterConfig
		routeLen int
		length   int
		want     noc.Cycles
	}{
		// The paper's didactic values (routl=0, linkl=1).
		{noc.RouterConfig{LinkLatency: 1, RouteLatency: 0}, 3, 60, 62},
		{noc.RouterConfig{LinkLatency: 1, RouteLatency: 0}, 7, 198, 204},
		{noc.RouterConfig{LinkLatency: 1, RouteLatency: 0}, 5, 128, 132},
		// routl·(|r|-1) + linkl·|r| + linkl·(L-1)
		{noc.RouterConfig{LinkLatency: 2, RouteLatency: 3}, 4, 10, 3*3 + 2*4 + 2*9},
		{noc.RouterConfig{LinkLatency: 1, RouteLatency: 1}, 2, 1, 1 + 2},
		// A latency past int64 saturates instead of wrapping negative.
		{noc.RouterConfig{LinkLatency: math.MaxInt64 / 2, RouteLatency: 0}, 3, 1, noc.MaxCycles},
		{noc.RouterConfig{LinkLatency: 1, RouteLatency: 0}, 3, math.MaxInt, noc.MaxCycles},
	}
	for i, tc := range cases {
		if got := ZeroLoadLatency(tc.cfg, tc.routeLen, tc.length); got != tc.want {
			t.Errorf("case %d: C = %d, want %d", i, got, tc.want)
		}
	}
}

// A flow whose Eq. 1 latency does not fit in int64 cycles is rejected
// by name, so no analysis ever sees a wrapped C.
func TestNewSystemRejectsOverflowingZeroLoadLatency(t *testing.T) {
	f := validFlow()
	f.Name = "huge"
	f.Length = math.MaxInt
	_, err := NewSystem(testTopo(t), []Flow{f})
	if err == nil || !strings.Contains(err.Error(), `flow 0 ("huge")`) || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("err = %v, want an overflow error naming flow 0", err)
	}
}

func TestNewSystem(t *testing.T) {
	topo := testTopo(t)
	flows := []Flow{
		{Name: "a", Priority: 2, Period: 1000, Deadline: 900, Length: 8, Src: 0, Dst: 15},
		{Name: "b", Priority: 1, Period: 500, Deadline: 500, Length: 4, Src: 3, Dst: 12},
	}
	sys, err := NewSystem(topo, flows)
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumFlows() != 2 {
		t.Fatalf("NumFlows = %d", sys.NumFlows())
	}
	// Route and C are consistent with Eq. 1.
	for i := range flows {
		want := ZeroLoadLatency(topo.Config(), sys.Route(i).Len(), flows[i].Length)
		if sys.C(i) != want {
			t.Errorf("C(%d) = %d, want %d", i, sys.C(i), want)
		}
	}
	// ByPriority: flow 1 (P=1) first.
	bp := sys.ByPriority()
	if bp[0] != 1 || bp[1] != 0 {
		t.Errorf("ByPriority = %v, want [1 0]", bp)
	}
	if !sys.HigherPriority(1, 0) || sys.HigherPriority(0, 1) {
		t.Error("HigherPriority comparison wrong")
	}
	// Flows must be copied, not aliased.
	flows[0].Priority = 99
	if sys.Flow(0).Priority == 99 {
		t.Error("NewSystem must copy the flow slice")
	}
	if sys.Topology() != topo {
		t.Error("Topology accessor mismatch")
	}
	if len(sys.Flows()) != 2 {
		t.Error("Flows accessor mismatch")
	}
}

func TestNewSystemErrors(t *testing.T) {
	topo := testTopo(t)
	if _, err := NewSystem(nil, []Flow{validFlow()}); err == nil {
		t.Error("nil topology must fail")
	}
	if _, err := NewSystem(topo, nil); err == nil {
		t.Error("empty flow set must fail")
	}
	dup := []Flow{
		{Name: "a", Priority: 1, Period: 1000, Deadline: 1000, Length: 4, Src: 0, Dst: 1},
		{Name: "b", Priority: 1, Period: 2000, Deadline: 2000, Length: 4, Src: 2, Dst: 3},
	}
	if _, err := NewSystem(topo, dup); err == nil || !strings.Contains(err.Error(), "priority") {
		t.Errorf("duplicate priorities must fail, got %v", err)
	}
	bad := []Flow{{Name: "a", Priority: 1, Period: 1000, Deadline: 1000, Length: 4, Src: 0, Dst: 99}}
	if _, err := NewSystem(topo, bad); err == nil {
		t.Error("unroutable flow must fail")
	}
	invalid := []Flow{{Name: "a", Priority: 1, Period: 0, Deadline: 0, Length: 4, Src: 0, Dst: 1}}
	if _, err := NewSystem(topo, invalid); err == nil {
		t.Error("invalid flow must fail")
	}
}

func TestMustSystemPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSystem must panic on error")
		}
	}()
	MustSystem(testTopo(t), nil)
}

func TestUtilisation(t *testing.T) {
	topo := testTopo(t)
	sys := MustSystem(topo, []Flow{
		{Name: "a", Priority: 1, Period: 1000, Deadline: 1000, Length: 10, Src: 0, Dst: 1},
	})
	u := sys.Utilisation()
	if u <= 0 || u >= 1 {
		t.Errorf("utilisation = %f out of plausible range", u)
	}
	// Doubling the rate doubles utilisation.
	sys2 := MustSystem(topo, []Flow{
		{Name: "a", Priority: 1, Period: 500, Deadline: 500, Length: 10, Src: 0, Dst: 1},
	})
	if got, want := sys2.Utilisation(), 2*u; got < want*0.999 || got > want*1.001 {
		t.Errorf("utilisation scaling: %f, want %f", got, want)
	}
}

func TestSystemWithConfig(t *testing.T) {
	topo := noc.MustMesh(4, 4, noc.RouterConfig{BufDepth: 2, LinkLatency: 1, RouteLatency: 0})
	sys := MustSystem(topo, []Flow{
		{Name: "a", Priority: 1, Period: 1000, Deadline: 1000, Length: 10, Src: 0, Dst: 15},
	})
	slow, err := sys.WithConfig(noc.RouterConfig{BufDepth: 2, LinkLatency: 2, RouteLatency: 1})
	if err != nil {
		t.Fatal(err)
	}
	if slow.C(0) <= sys.C(0) {
		t.Errorf("slower platform must increase C: %d vs %d", slow.C(0), sys.C(0))
	}
	if _, err := sys.WithConfig(noc.RouterConfig{}); err == nil {
		t.Error("WithConfig must validate")
	}
}

func TestFlowString(t *testing.T) {
	if s := validFlow().String(); !strings.Contains(s, "P=1") {
		t.Errorf("Flow.String() = %q", s)
	}
}

func TestLinkLoads(t *testing.T) {
	topo := noc.MustMesh(4, 1, noc.RouterConfig{BufDepth: 2, LinkLatency: 1, RouteLatency: 0})
	sys := MustSystem(topo, []Flow{
		{Name: "a", Priority: 1, Period: 100, Deadline: 100, Length: 10, Src: 0, Dst: 3},
		{Name: "b", Priority: 2, Period: 200, Deadline: 200, Length: 10, Src: 1, Dst: 3},
	})
	loads := sys.LinkLoads()
	if len(loads) != topo.NumLinks() {
		t.Fatalf("loads for %d links, want %d", len(loads), topo.NumLinks())
	}
	// Flow a alone on its injection link: 10/100.
	if got := loads[sys.Route(0)[0]]; got != 0.1 {
		t.Errorf("injection load = %f, want 0.1", got)
	}
	// Shared mesh link r1→r2 carries both: 0.1 + 0.05.
	shared := sys.Route(1)[1]
	if !sys.Route(0).Contains(shared) {
		t.Fatalf("expected shared link")
	}
	if got := loads[shared]; got < 0.1499 || got > 0.1501 {
		t.Errorf("shared load = %f, want 0.15", got)
	}
	// Untouched links carry zero.
	if got := loads[topo.InjectionLink(2)]; got != 0 {
		t.Errorf("idle link load = %f", got)
	}
}

func TestHyperperiod(t *testing.T) {
	topo := testTopo(t)
	flows := func(periods ...noc.Cycles) *System {
		fs := make([]Flow, len(periods))
		for i, p := range periods {
			fs[i] = Flow{Name: string(rune('a' + i)), Priority: i + 1, Period: p, Deadline: p, Length: 1, Src: 0, Dst: 1}
		}
		return MustSystem(topo, fs)
	}
	for _, c := range []struct {
		periods []noc.Cycles
		want    noc.Cycles
	}{
		{[]noc.Cycles{6}, 6},
		{[]noc.Cycles{6, 10}, 30},
		{[]noc.Cycles{12, 18, 8}, 72},
		{[]noc.Cycles{7, 7, 7}, 7},
		// lcm(2^62, 3) overflows int64 and saturates, and stays
		// saturated through later periods.
		{[]noc.Cycles{1 << 62, 3, 7}, noc.MaxCycles},
	} {
		if got := flows(c.periods...).Hyperperiod(); got != c.want {
			t.Errorf("Hyperperiod of periods %v = %d, want %d", c.periods, got, c.want)
		}
	}
}
