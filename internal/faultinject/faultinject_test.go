package faultinject

import (
	"errors"
	"strconv"
	"strings"
	"testing"
)

func TestDisabledIsNoOp(t *testing.T) {
	Disable()
	if Enabled() {
		t.Fatal("Enabled() = true with no injector installed")
	}
	if err := Fire(SiteParallelTask, "0"); err != nil {
		t.Fatalf("Fire with no injector: %v", err)
	}
}

func TestKeyMatching(t *testing.T) {
	in := New(1).Add(Fault{Site: SiteServeBatchItem, Kind: KindError, Keys: []string{"3", "7"}})
	Enable(in)
	defer Disable()

	for i := 0; i < 10; i++ {
		err := Fire(SiteServeBatchItem, strconv.Itoa(i))
		want := i == 3 || i == 7
		if (err != nil) != want {
			t.Fatalf("key %d: err = %v, want fired=%v", i, err, want)
		}
		if want {
			var ie *InjectedError
			if !errors.As(err, &ie) {
				t.Fatalf("key %d: err = %T, want *InjectedError", i, err)
			}
			if ie.Site != SiteServeBatchItem || ie.Key != strconv.Itoa(i) {
				t.Fatalf("key %d: error carries %s[%s]", i, ie.Site, ie.Key)
			}
			if !ie.Transient() {
				t.Fatal("InjectedError must be transient")
			}
		}
	}
	// A different site never matches, even with the same key.
	if err := Fire(SiteCoreFixedPoint, "3"); err != nil {
		t.Fatalf("other site fired: %v", err)
	}
	if got := in.Fired()[SiteServeBatchItem]; got != 2 {
		t.Fatalf("Fired = %d, want 2", got)
	}
	if in.TotalFired() != 2 {
		t.Fatalf("TotalFired = %d, want 2", in.TotalFired())
	}
}

func TestTimesCap(t *testing.T) {
	in := New(1).Add(Fault{Site: SiteCoreFixedPoint, Kind: KindError, Times: 3})
	Enable(in)
	defer Disable()

	fired := 0
	for i := 0; i < 10; i++ {
		if Fire(SiteCoreFixedPoint, "0") != nil {
			fired++
		}
	}
	if fired != 3 {
		t.Fatalf("fired %d times, want 3 (Times cap)", fired)
	}
	if in.TotalFired() != 3 {
		t.Fatalf("TotalFired = %d, want 3", in.TotalFired())
	}
}

func TestProbDeterministicAcrossRuns(t *testing.T) {
	run := func(seed int64) []int {
		in := New(seed).Add(Fault{Site: SiteParallelTask, Kind: KindError, Prob: 0.25})
		Enable(in)
		defer Disable()
		var hits []int
		for i := 0; i < 400; i++ {
			if Fire(SiteParallelTask, strconv.Itoa(i)) != nil {
				hits = append(hits, i)
			}
		}
		return hits
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("same seed fired %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at hit %d: %d vs %d", i, a[i], b[i])
		}
	}
	// Roughly a quarter of hits fire (loose bound, deterministic anyway).
	if len(a) < 50 || len(a) > 150 {
		t.Fatalf("Prob 0.25 fired %d/400 hits", len(a))
	}
	// A different seed selects a different subset.
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds selected identical hit subsets")
	}
}

func TestKindPanic(t *testing.T) {
	Enable(New(1).Add(Fault{Site: SiteServeEngineBuild, Kind: KindPanic}))
	defer Disable()

	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("KindPanic did not panic")
		}
		s, _ := v.(string)
		if !strings.Contains(s, "injected panic at serve.engine.build[k]") {
			t.Fatalf("panic value = %v", v)
		}
	}()
	Fire(SiteServeEngineBuild, "k")
}

func TestCustomError(t *testing.T) {
	sentinel := errors.New("boom")
	Enable(New(1).Add(Fault{Site: SiteServeCachePut, Kind: KindError, Err: sentinel}))
	defer Disable()

	if err := Fire(SiteServeCachePut, "k"); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the configured sentinel", err)
	}
}

func TestFirstMatchingFaultWins(t *testing.T) {
	sentinel := errors.New("first")
	in := New(1).
		Add(Fault{Site: SiteParallelTask, Kind: KindError, Keys: []string{"5"}, Err: sentinel}).
		Add(Fault{Site: SiteParallelTask, Kind: KindPanic})
	Enable(in)
	defer Disable()

	// Key 5 matches the first fault; the panic fault never sees it.
	if err := Fire(SiteParallelTask, "5"); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want first fault's sentinel", err)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindError: "error", KindPanic: "panic", Kind(99): "Kind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}
