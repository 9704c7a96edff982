package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"wormnoc/internal/noc"
	"wormnoc/internal/traffic"
)

// Telemetry aggregates observability counters of one or more analysis
// runs. Engine.Telemetry returns the engine's cumulative counters;
// Engine.AnalyzeWithTelemetry additionally returns a per-run snapshot.
type Telemetry struct {
	// Runs counts completed analysis runs.
	Runs int64
	// Flows counts flows analysed across all runs.
	Flows int64
	// Iterations counts response-time fixed-point iterations.
	Iterations int64
	// MemoHits / MemoMisses count downstream-interference memo lookups
	// (I^down recursion). Both stay zero for SB and SLA, which have no
	// downstream term.
	MemoHits, MemoMisses int64
	// MaxDownstreamDepth is the deepest I^down recursion observed.
	MaxDownstreamDepth int64
	// FlowNanos / MaxFlowNanos track per-flow wall time: the sum over
	// all analysed flows and the slowest single flow.
	FlowNanos, MaxFlowNanos int64
	// PerFlowNanos holds the wall time of each flow of one run, indexed
	// like the system's flows. Only populated on per-run snapshots from
	// AnalyzeWithTelemetry; Add ignores it.
	PerFlowNanos []int64
}

// Add merges the counters of o into t (sums for totals, max for the
// depth and slowest-flow gauges). Per-flow timings are not merged.
func (t *Telemetry) Add(o Telemetry) {
	t.Runs += o.Runs
	t.Flows += o.Flows
	t.Iterations += o.Iterations
	t.MemoHits += o.MemoHits
	t.MemoMisses += o.MemoMisses
	if o.MaxDownstreamDepth > t.MaxDownstreamDepth {
		t.MaxDownstreamDepth = o.MaxDownstreamDepth
	}
	t.FlowNanos += o.FlowNanos
	if o.MaxFlowNanos > t.MaxFlowNanos {
		t.MaxFlowNanos = o.MaxFlowNanos
	}
}

// String renders the telemetry as a short human-readable report (the
// CLIs' -stats output).
func (t Telemetry) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine telemetry: %d run(s), %d flow(s) analysed\n", t.Runs, t.Flows)
	fmt.Fprintf(&b, "  fixed-point iterations:   %d\n", t.Iterations)
	fmt.Fprintf(&b, "  idown memo hits/misses:   %d/%d\n", t.MemoHits, t.MemoMisses)
	fmt.Fprintf(&b, "  max downstream depth:     %d\n", t.MaxDownstreamDepth)
	fmt.Fprintf(&b, "  flow wall time: total %v, slowest flow %v\n",
		time.Duration(t.FlowNanos).Round(time.Microsecond),
		time.Duration(t.MaxFlowNanos).Round(time.Microsecond))
	return b.String()
}

// Engine runs response-time analyses of one system repeatedly and
// cheaply: the interference sets are built once, and the per-run working
// state (result arrays and the downstream-interference memos, slices
// keyed by dense direct-pair ranks instead of per-run map allocations)
// is recycled through an arena pool. An Engine is safe for concurrent
// use; every Analyze call works on its own arena.
type Engine struct {
	sys  *traffic.System
	sets *Sets
	pool sync.Pool

	mu  sync.Mutex
	tel Telemetry
}

// NewEngine builds the interference sets of the system and returns an
// engine ready to run any of the four analyses over them.
func NewEngine(sys *traffic.System) *Engine {
	return NewEngineWithSets(sys, BuildSets(sys))
}

// NewEngineWithSets is NewEngine with pre-built interference sets.
func NewEngineWithSets(sys *traffic.System, sets *Sets) *Engine {
	return &Engine{sys: sys, sets: sets}
}

// Sets returns the engine's interference sets (immutable, shared).
func (e *Engine) Sets() *Sets { return e.sets }

// System returns the analysed system.
func (e *Engine) System() *traffic.System { return e.sys }

// Telemetry returns a snapshot of the engine's cumulative counters.
func (e *Engine) Telemetry() Telemetry {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tel
}

// arena is the recyclable working state of one analysis run.
type arena struct {
	R         []noc.Cycles
	status    []FlowStatus
	analyzed  []bool
	flowNanos []int64
	// Downstream-interference memos, keyed by Sets.pairRank. xlwx is the
	// Equation-3 memo (XLWX runs and IBN's upstream fallback); ibn is
	// the Equation-8 memo.
	xlwxVal, ibnVal []noc.Cycles
	xlwxSet, ibnSet []bool
	// terms is scratch space for the per-flow interference terms.
	terms []hitTerm
}

// newArena allocates the working state for a system of n flows and p
// direct-interference pairs.
func newArena(n, p int) *arena {
	return &arena{
		R:         make([]noc.Cycles, n),
		status:    make([]FlowStatus, n),
		analyzed:  make([]bool, n),
		flowNanos: make([]int64, n),
		xlwxVal:   make([]noc.Cycles, p),
		ibnVal:    make([]noc.Cycles, p),
		xlwxSet:   make([]bool, p),
		ibnSet:    make([]bool, p),
	}
}

// clearMemos forgets every I^down memo entry.
func (ar *arena) clearMemos() {
	clear(ar.xlwxSet)
	clear(ar.ibnSet)
}

// result publishes the arena's per-flow outcomes as a fresh Result.
func (ar *arena) result(m Method) *Result {
	res := &Result{Method: m, Flows: make([]FlowResult, len(ar.R)), Schedulable: true}
	for i := range res.Flows {
		res.Flows[i] = FlowResult{R: ar.R[i], Status: ar.status[i]}
		if ar.status[i] != Schedulable {
			res.Schedulable = false
		}
	}
	return res
}

// newAnalyzer binds one run over sys and sets to the arena ar. A nil ctx
// is treated as context.Background().
func newAnalyzer(ctx context.Context, sys *traffic.System, sets *Sets, opt Options, ar *arena) *analyzer {
	if ctx == nil {
		ctx = context.Background()
	}
	return &analyzer{
		sys:      sys,
		sets:     sets,
		opt:      opt,
		ar:       ar,
		ctx:      ctx,
		R:        ar.R,
		status:   ar.status,
		analyzed: ar.analyzed,
	}
}

// prepare validates the method selector and applies the iteration-cap
// default — the single place every entry point normalises options.
func prepare(opt Options) (Options, error) {
	switch opt.Method {
	case SB, XLWX, IBN, SLA:
	default:
		return opt, fmt.Errorf("core: unknown analysis method %d", int(opt.Method))
	}
	if opt.MaxIterations <= 0 {
		opt.MaxIterations = DefaultMaxIterations
	}
	return opt, nil
}

// fullPass analyses every flow from highest to lowest priority, timing
// each. A cancelled context aborts it between flows or mid-iteration
// with ctx.Err(), leaving the arena partially filled.
func (a *analyzer) fullPass() error {
	a.tel.Runs = 1
	for _, i := range a.sys.ByPriority() {
		t0 := time.Now()
		err := a.analyzeFlow(i, 0)
		d := time.Since(t0).Nanoseconds()
		a.ar.flowNanos[i] = d
		a.tel.FlowNanos += d
		if d > a.tel.MaxFlowNanos {
			a.tel.MaxFlowNanos = d
		}
		a.tel.Flows++
		if err != nil {
			return err
		}
	}
	return nil
}

// run executes one full pass on a pooled arena behind Guard("analyze"),
// so a panic anywhere in the analysis returns an *InternalError and the
// engine stays usable. use reads the outcome off the analyzer before the
// arena goes back to the pool; it runs only when the pass completed.
func (e *Engine) run(ctx context.Context, opt Options, use func(a *analyzer) error) error {
	opt, err := prepare(opt)
	if err != nil {
		return err
	}
	ar, _ := e.pool.Get().(*arena)
	if ar == nil {
		ar = newArena(e.sys.NumFlows(), e.sets.numPairs())
	} else {
		clear(ar.R)
		clear(ar.status) // Schedulable is the zero status
		clear(ar.analyzed)
		clear(ar.flowNanos)
		ar.clearMemos()
	}
	a := newAnalyzer(ctx, e.sys, e.sets, opt, ar)
	defer func() {
		e.mu.Lock()
		e.tel.Add(a.tel)
		e.mu.Unlock()
		e.pool.Put(ar)
	}()
	return Guard("analyze", func() error {
		if err := a.fullPass(); err != nil {
			return err
		}
		return use(a)
	})
}

// Analyze computes worst-case response-time bounds for every flow of the
// engine's system under the selected analysis.
func (e *Engine) Analyze(opt Options) (*Result, error) {
	return e.AnalyzeContext(context.Background(), opt)
}

// AnalyzeContext is Analyze with early cancellation: when ctx expires the
// run stops and returns ctx.Err() instead of a result. Cancellation is
// checked before each flow and every ctxCheckInterval fixed-point
// iterations, so even a single pathological flow (huge deadline, load at
// the convergence boundary) aborts promptly rather than iterating to
// MaxIterations. A nil ctx is treated as context.Background(). A panic
// inside the analysis returns an *InternalError with Op "analyze"; this
// is the boundary the serving layer crosses for every request.
func (e *Engine) AnalyzeContext(ctx context.Context, opt Options) (*Result, error) {
	var res *Result
	err := e.run(ctx, opt, func(a *analyzer) error {
		res = a.ar.result(a.opt.Method)
		return nil
	})
	return res, err
}

// AnalyzeWithTelemetry is Analyze plus a per-run telemetry snapshot
// including per-flow wall times.
func (e *Engine) AnalyzeWithTelemetry(opt Options) (*Result, Telemetry, error) {
	var (
		res *Result
		tel Telemetry
	)
	err := e.run(context.Background(), opt, func(a *analyzer) error {
		res, tel = a.ar.result(a.opt.Method), a.tel
		tel.PerFlowNanos = append([]int64(nil), a.ar.flowNanos...)
		return nil
	})
	return res, tel, err
}
