// Package parallel provides the worker-pool runner shared by the
// experiment harness (internal/exp), the simulator's parameter sweeps
// (internal/sim) and the serving layer's batch fan-out
// (internal/serve). It exists as its own package because those
// import-wise unrelated layers need the same semantics: bounded
// concurrency, deterministic task indexing, early cancellation on the
// first error, serialised progress callbacks — and, since the fault-
// containment work, panic isolation: a panicking task becomes a typed
// *PanicError instead of killing the process.
package parallel

import (
	"context"
	"runtime"
	"sync"
)

// Runner executes independent tasks on a bounded worker pool.
//
// By default a Runner stops dispatching as soon as a task fails or the
// context is cancelled: at most Workers tasks that were already in
// flight still complete, everything else is skipped. With KeepGoing the
// pool instead records per-index failures and runs every task. In both
// modes a task panic is recovered and converted into a *PanicError; it
// never propagates to the caller's goroutine or crashes the process.
// The zero value is a valid runner using all CPUs and no cancellation.
type Runner struct {
	// Workers bounds concurrency; 0 (or negative) selects GOMAXPROCS.
	Workers int
	// Context, when non-nil, cancels the run early: tasks not yet
	// started are skipped and Run returns the context's error (unless a
	// task error was recorded first, which takes precedence).
	Context context.Context
	// Progress, when non-nil, is called after every successfully
	// completed task with the number done so far and the total. Calls
	// are serialised; done is monotonically increasing. Failed tasks do
	// not count as done.
	Progress func(done, total int)
	// KeepGoing, when true, records failures per task index instead of
	// cancelling the pool: every task runs (unless the context dies
	// first) and Run returns a *TaskErrors aggregating the failures.
	// The serving layer uses this for per-item batch isolation.
	KeepGoing bool
}

// RunContext is Run with ctx taking the place of the runner's Context
// field for this call only. It lets a shared, long-lived Runner (e.g.
// the serving layer's batch fan-out) impose per-call deadlines without
// mutating the Runner, which would race with concurrent callers.
func (r *Runner) RunContext(ctx context.Context, n int, fn func(i int) error) error {
	call := *r
	call.Context = ctx
	return call.Run(n, fn)
}

// safeCall runs fn(w, i) with panic containment: a panic in the task
// is recovered into a *PanicError carrying the index and stack.
func safeCall(w, i int, fn func(w, i int) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = newPanicError(i, v)
		}
	}()
	return fn(w, i)
}

// Run executes fn(i) for every i in [0, n). In the default mode it
// returns the first error recorded — a task's own error, a *PanicError
// for a recovered panic, or the context's error when cancelled
// externally. With KeepGoing it returns a *TaskErrors when at least one
// task failed, the context's error when the run was cut short with no
// task failures, and nil otherwise. fn must be safe for concurrent
// invocation on distinct indices.
func (r *Runner) Run(n int, fn func(i int) error) error {
	return r.RunWorkers(n, func(_, i int) error { return fn(i) })
}

// RunWorkers is Run with the executing worker slot exposed: fn receives
// (w, i) where w in [0, workers) identifies the worker goroutine running
// task i and workers is min(Workers or GOMAXPROCS, n). Tasks with the
// same w run sequentially, so callers can pin per-worker reusable state
// — one simulation engine per slot, say — without further locking
// (sim.Phasings is the canonical client). Error, cancellation, progress
// and panic-containment semantics are exactly Run's.
func (r *Runner) RunWorkers(n int, fn func(w, i int) error) error {
	parent := r.Context
	if parent == nil {
		parent = context.Background()
	}
	w := r.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w <= 1 {
		return r.runSerial(parent, n, fn)
	}
	return r.runPool(parent, w, n, fn)
}

func (r *Runner) runSerial(parent context.Context, n int, fn func(w, i int) error) error {
	var te *TaskErrors
	done := 0
	for i := 0; i < n; i++ {
		if err := parent.Err(); err != nil {
			if te != nil {
				te.NumTasks = n
				return te
			}
			return err
		}
		if err := safeCall(0, i, fn); err != nil {
			if !r.KeepGoing {
				return err
			}
			te = te.add(i, err)
			continue
		}
		done++
		if r.Progress != nil {
			r.Progress(done, n)
		}
	}
	if te != nil {
		te.NumTasks = n
		return te
	}
	return parent.Err()
}

func (r *Runner) runPool(parent context.Context, w, n int, fn func(w, i int) error) error {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		te       *TaskErrors
		done     int
	)
	work := make(chan int)
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for i := range work {
				// A task handed over just before cancellation is
				// skipped here rather than run.
				if ctx.Err() != nil {
					continue
				}
				err := safeCall(slot, i, fn)
				mu.Lock()
				if err != nil {
					if r.KeepGoing {
						te = te.add(i, err)
						mu.Unlock()
						continue
					}
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					cancel()
					continue
				}
				done++
				if r.Progress != nil {
					r.Progress(done, n)
				}
				mu.Unlock()
			}
		}(k)
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case work <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(work)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if firstErr != nil {
		return firstErr
	}
	if te != nil {
		te.NumTasks = n
		return te
	}
	return parent.Err()
}
