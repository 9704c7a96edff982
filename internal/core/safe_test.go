package core_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"wormnoc/internal/core"
	"wormnoc/internal/faultinject"
	"wormnoc/internal/workload"
)

func TestGuardConvertsPanic(t *testing.T) {
	err := core.Guard("demo", func() error { panic("invariant violated") })
	var ie *core.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (%T), want *InternalError", err, err)
	}
	if ie.Op != "demo" || ie.Value != "invariant violated" {
		t.Fatalf("InternalError = {Op:%q, Value:%v}", ie.Op, ie.Value)
	}
	if len(ie.Stack) == 0 {
		t.Fatal("stack not captured")
	}
	if !strings.Contains(ie.Error(), "internal error in demo") {
		t.Fatalf("Error() = %q", ie.Error())
	}
}

func TestGuardPassesThroughErrorsAndNil(t *testing.T) {
	sentinel := errors.New("plain")
	if err := core.Guard("demo", func() error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("plain error not passed through: %v", err)
	}
	if err := core.Guard("demo", func() error { return nil }); err != nil {
		t.Fatalf("nil not passed through: %v", err)
	}
}

func TestGuardDoesNotRewrapNestedInternalError(t *testing.T) {
	inner := &core.InternalError{Op: "inner", Value: "v"}
	err := core.Guard("outer", func() error { panic(inner) })
	var ie *core.InternalError
	if !errors.As(err, &ie) || ie != inner {
		t.Fatalf("nested guard re-wrapped: %v", err)
	}
}

// injectPanic arms a panic at every hit of the fixed-point fault site
// until faultinject.Disable, which the test's cleanup also calls.
func injectPanic(t *testing.T) {
	t.Helper()
	faultinject.Enable(faultinject.New().Add(faultinject.Fault{Site: faultinject.SiteCoreFixedPoint}))
	t.Cleanup(faultinject.Disable)
}

// requireInternalError fails unless err is an *InternalError with the
// given Op carrying the injected fixed-point panic.
func requireInternalError(t *testing.T, err error, op string) {
	t.Helper()
	var ie *core.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (%T), want *InternalError", err, err)
	}
	if ie.Op != op {
		t.Fatalf("Op = %q, want %q", ie.Op, op)
	}
	if !strings.Contains(ie.Error(), "injected panic at core.fixedpoint") {
		t.Fatalf("Error() = %q", ie.Error())
	}
}

func TestAnalyzeContextGuardHappyPath(t *testing.T) {
	var eng *core.Engine
	if err := core.Guard("engine build", func() error {
		eng = core.NewEngine(workload.Didactic(2))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	res, err := eng.AnalyzeContext(context.Background(), core.Options{Method: core.IBN})
	if err != nil {
		t.Fatal(err)
	}
	if res.R(2) != 348 {
		t.Fatalf("R(τ3) = %d, want 348", res.R(2))
	}
}

// An injected panic inside the fixed-point loop must surface as a typed
// *InternalError from AnalyzeContext, never as a raw panic.
func TestAnalyzeContextContainsInjectedPanic(t *testing.T) {
	injectPanic(t)
	eng := core.NewEngine(workload.Didactic(2))
	_, err := eng.AnalyzeContext(context.Background(), core.Options{Method: core.IBN})
	requireInternalError(t, err, "analyze")

	// The engine stays usable once the injector is gone.
	faultinject.Disable()
	res, err := eng.AnalyzeContext(context.Background(), core.Options{Method: core.IBN})
	if err != nil {
		t.Fatal(err)
	}
	if res.R(2) != 348 {
		t.Fatalf("post-recovery R(τ3) = %d, want 348", res.R(2))
	}
}

// Explain and AnalyzeWithTelemetry share AnalyzeContext's guarded run.
func TestExplainAndTelemetryContainInjectedPanic(t *testing.T) {
	injectPanic(t)
	eng := core.NewEngine(workload.Didactic(2))
	_, err := eng.Explain(core.Options{Method: core.IBN}, 2)
	requireInternalError(t, err, "analyze")
	_, _, err = eng.AnalyzeWithTelemetry(core.Options{Method: core.IBN})
	requireInternalError(t, err, "analyze")

	faultinject.Disable()
	b, err := eng.Explain(core.Options{Method: core.IBN}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b.R != 348 {
		t.Fatalf("post-recovery Explain R(τ3) = %d, want 348", b.R)
	}
}

// A panic inside an incremental pass surfaces as an *InternalError, and
// the configuration's next call redoes the analysis from scratch, so the
// half-updated arena is never served.
func TestIncrementalAnalyzeContainsInjectedPanic(t *testing.T) {
	sys := workload.Didactic(2)
	opt := core.Options{Method: core.IBN}
	inc := core.NewIncremental(sys)
	if _, err := inc.Analyze(context.Background(), opt); err != nil {
		t.Fatal(err)
	}
	d := core.Delta{Kind: core.DeltaJitter, Flow: 0, Cycles: 40}
	if err := inc.Apply(d); err != nil {
		t.Fatal(err)
	}

	injectPanic(t)
	_, err := inc.Analyze(context.Background(), opt)
	requireInternalError(t, err, "incremental analyze")

	faultinject.Disable()
	full := inc.Stats().FullRuns
	got, err := inc.Analyze(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Stats().FullRuns != full+1 {
		t.Fatal("the call after a panic did not run from scratch")
	}
	edited, err := core.ApplyDelta(sys, d)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Analyze(edited, opt)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "after recovery", got, want)
}
