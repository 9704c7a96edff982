package faultinject

import (
	"strconv"
	"strings"
	"testing"
)

// fires reports whether Fire(site, key) panicked with an injected fault.
func fires(t *testing.T, site Site, key string) (fired bool) {
	t.Helper()
	defer func() {
		if v := recover(); v != nil {
			s, _ := v.(string)
			if !strings.Contains(s, "faultinject: injected panic at ") {
				t.Fatalf("foreign panic value %v", v)
			}
			fired = true
		}
	}()
	Fire(site, key)
	return false
}

func TestDisabledIsNoOp(t *testing.T) {
	Disable()
	if Enabled() {
		t.Fatal("Enabled() = true with no injector installed")
	}
	if fires(t, SiteServeBatchItem, "0") {
		t.Fatal("Fire panicked with no injector installed")
	}
}

func TestKeyMatching(t *testing.T) {
	in := New().Add(Fault{Site: SiteServeBatchItem, Keys: []string{"3", "7"}})
	Enable(in)
	defer Disable()

	for i := 0; i < 10; i++ {
		want := i == 3 || i == 7
		if got := fires(t, SiteServeBatchItem, strconv.Itoa(i)); got != want {
			t.Fatalf("key %d: fired = %v, want %v", i, got, want)
		}
	}
	// A different site never matches, even with the same key.
	if fires(t, SiteCoreFixedPoint, "3") {
		t.Fatal("other site fired")
	}
	if got := in.Fired()[SiteServeBatchItem]; got != 2 {
		t.Fatalf("Fired = %d, want 2", got)
	}
	if in.TotalFired() != 2 {
		t.Fatalf("TotalFired = %d, want 2", in.TotalFired())
	}
}

func TestKindPanic(t *testing.T) {
	Enable(New().Add(Fault{Site: SiteServeEngineBuild}))
	defer Disable()

	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("a matched fault did not panic")
		}
		s, _ := v.(string)
		if !strings.Contains(s, "injected panic at serve.engine.build[k]") {
			t.Fatalf("panic value = %v", v)
		}
	}()
	Fire(SiteServeEngineBuild, "k")
}

// Overlapping faults fire once per hit: the first match is counted and
// later ones never see it, so fired counts reconcile with hits.
func TestFirstMatchingFaultWins(t *testing.T) {
	in := New().
		Add(Fault{Site: SiteCoreFixedPoint, Keys: []string{"5"}}).
		Add(Fault{Site: SiteCoreFixedPoint})
	Enable(in)
	defer Disable()

	if !fires(t, SiteCoreFixedPoint, "5") || !fires(t, SiteCoreFixedPoint, "6") {
		t.Fatal("a matched hit did not fire")
	}
	if got := in.TotalFired(); got != 2 {
		t.Fatalf("TotalFired = %d after two hits, want 2", got)
	}
	if in.faults[0].fired != 1 || in.faults[1].fired != 1 {
		t.Fatalf("per-fault counts = %d/%d, want 1/1", in.faults[0].fired, in.faults[1].fired)
	}
}
