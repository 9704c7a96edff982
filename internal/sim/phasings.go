package sim

import (
	"fmt"
	"runtime"

	"wormnoc/internal/noc"
	"wormnoc/internal/parallel"
	"wormnoc/internal/traffic"
)

// Phasings evaluates batches of release phasings of one system. It is
// the primitive under all three phasing explorers: SweepOffsets (a 1-D
// offset grid), SearchWorstCase (random restarts with refinement) and
// the exhaustive explorer (the quotiented cluster grid). It keeps one
// warm Engine per worker across calls, so a warm batch allocates
// nothing per phasing (DESIGN.md §10 reuse contract). It is not safe
// for concurrent use.
type Phasings struct {
	sys     *traffic.System
	workers int
	slots   []phasingSlot
	fold    Fold
}

// phasingSlot is one worker's engine, offsets and share of the fold,
// built by the first chunk the worker runs: a worker that never runs
// never builds an engine.
type phasingSlot struct {
	eng  *Engine
	off  []noc.Cycles
	fold Fold
}

// Fold reduces an Eval batch per flow. Every field is a maximum (ties
// to the lowest index) or a sum, so the fold is the same however the
// batch is split across workers: bit-identical at any worker count.
type Fold struct {
	// Worst[f] is flow f's largest observed latency, or -1 when no
	// packet of f completed in any phasing.
	Worst []noc.Cycles
	// At[f] is the lowest phasing index reaching Worst[f] (-1 with it).
	At []int
	// Censored[f] counts phasings in which a packet of f released at its
	// periodic tick at least a deadline before the horizon did not
	// complete. A busy-period run that drained before the horizon
	// delivered everything it released, so it censors nothing.
	Censored []int64
	// Misses[f] totals f's completed packets that missed their deadline.
	Misses []int64
	// Runs counts the phasings simulated.
	Runs int
}

// reset empties f for nf flows, allocating its rows on first use.
func (f *Fold) reset(nf int) {
	if f.Worst == nil {
		f.Worst, f.At = make([]noc.Cycles, nf), make([]int, nf)
		f.Censored, f.Misses = make([]int64, nf), make([]int64, nf)
	}
	for k := range f.Worst {
		f.Worst[k], f.At[k] = -1, -1
	}
	clear(f.Censored)
	clear(f.Misses)
	f.Runs = 0
}

// offer folds latency w of phasing i into row k.
func (f *Fold) offer(k int, w noc.Cycles, i int) {
	if w > f.Worst[k] || w == f.Worst[k] && i < f.At[k] {
		f.Worst[k], f.At[k] = w, i
	}
}

// owed returns how many packets flow fl, first released at off, must
// complete within the horizon: its periodic releases with a full
// deadline window before the last simulated cycle.
func owed(off noc.Cycles, fl *traffic.Flow, duration noc.Cycles) int {
	last := duration - 1 - fl.Deadline
	if off > last {
		return 0
	}
	return int((last-off)/fl.Period + 1)
}

// NewPhasings returns an evaluator for sys running up to workers
// engines at once; 0 (or negative) selects GOMAXPROCS.
func NewPhasings(sys *traffic.System, workers int) *Phasings {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Phasings{sys: sys, workers: workers, slots: make([]phasingSlot, workers)}
}

// Eval simulates phasings 0..n-1 of base and returns their Fold. set
// writes phasing i's offsets into off, which holds base.Offsets (zeros
// when nil) on entry; it is called concurrently for distinct i and
// must not retain off. When base replays a full system's jitter
// (SearchWorstCase's restricted probes), off continues past the
// system's flows with the first tick of each replayed dropped flow.
//
// base is validated once, before any run, and may not set TraceWriter:
// concurrent traces would interleave. A run error stops the batch (a
// chunk under way still completes), and Eval returns the error with the
// fold of the phasings that completed. The Fold is valid until the next
// Eval.
func (p *Phasings) Eval(base Config, n int, set func(i int, off []noc.Cycles)) (*Fold, error) {
	if base.TraceWriter != nil {
		return nil, fmt.Errorf("sim: tracing is not supported in phasing batches")
	}
	if err := validateConfig(p.sys, base); err != nil {
		return nil, err
	}
	nf := p.sys.NumFlows()
	nd := len(base.replay.drops)
	lo, hi := 0, nf
	if base.stopFlow > 0 { // the other rows of a target-scoped run are partial
		lo, hi = base.stopFlow-1, base.stopFlow
	}
	for w := range p.slots {
		if p.slots[w].eng != nil {
			p.slots[w].fold.reset(nf)
		}
	}
	var err error
	if n > 0 {
		// About 64 chunks: a partition of n alone, never of the workers.
		chunk := min(max(n/64, 1), 2048)
		r := parallel.Runner{Workers: p.workers}
		err = r.RunWorkers((n-1)/chunk+1, func(w, c int) error {
			s := &p.slots[w]
			if s.eng == nil {
				s.eng = NewEngine(p.sys)
				s.fold.reset(nf)
			}
			if len(s.off) != nf+nd {
				s.off = make([]noc.Cycles, nf+nd)
			}
			cfg := base
			cfg.Offsets, cfg.replay.offsets = s.off[:nf], s.off[nf:]
			for i := c * chunk; i < c*chunk+min(chunk, n-c*chunk); i++ {
				if base.Offsets != nil {
					copy(s.off, base.Offsets)
				} else {
					clear(s.off)
				}
				set(i, s.off)
				for f, o := range s.off {
					if o < 0 {
						return fmt.Errorf("sim: phasing %d gives flow %d negative offset %d", i, f, o)
					}
				}
				s.eng.reset(cfg)
				s.eng.run()
				res := s.eng.res
				drained := cfg.busyPeriod && res.Stats.StoppedAt < cfg.Duration
				for k := lo; k < hi; k++ {
					s.fold.offer(k, res.WorstLatency[k], i)
					if !drained && res.Completed[k] < owed(s.off[k], &s.eng.flows[k], cfg.Duration) {
						s.fold.Censored[k]++
					}
					s.fold.Misses[k] += int64(res.DeadlineMisses[k])
				}
				s.fold.Runs++
			}
			return nil
		})
	}
	p.fold.reset(nf)
	for w := range p.slots {
		s := &p.slots[w].fold
		for k := range s.Worst {
			p.fold.offer(k, s.Worst[k], s.At[k])
			p.fold.Censored[k] += s.Censored[k]
			p.fold.Misses[k] += s.Misses[k]
		}
		p.fold.Runs += s.Runs
	}
	return &p.fold, err
}

// EvalBusyPeriods is Eval with every phasing simulated only to its
// first idle instant, as Engine.RunBusyPeriod does; the exhaustive
// explorer uses it (DESIGN.md §15).
func (p *Phasings) EvalBusyPeriods(base Config, n int, set func(i int, off []noc.Cycles)) (*Fold, error) {
	if base.InjectJitter {
		return nil, fmt.Errorf("sim: a busy-period run cannot inject jitter")
	}
	base.busyPeriod = true
	return p.Eval(base, n, set)
}
