package sim

import (
	"math/rand"

	"wormnoc/internal/noc"
	"wormnoc/internal/traffic"
)

// jitterRecordCap bounds the draws a jitterStream records (32 KiB). A
// search probe draws a few hundred at most; a long run past the cap
// stops recording and costs one reseed at its engine's next run.
const jitterRecordCap = 4096

// jitterStream is the engine's jitter rand.Source. Seeding math/rand's
// generator costs ~8µs, more than many short probes spend simulating,
// and every probe of a phasing search shares one JitterSeed. So instead
// of reseeding per run, the stream records the values it hands out and
// replays them when a run rewinds it to the same seed:
//
//   - the inner source is seeded lazily, on a run's first draw, so
//     jitter-free runs never seed;
//   - while recording, the inner source's position equals len(rec): a
//     rewind to the same seed replays rec, then continues the live
//     source;
//   - past jitterRecordCap draws it stops recording, and the next rewind
//     reseeds.
//
// rand.Rand draws Int63n only through Int63, so a run sees exactly the
// values of a freshly seeded rand.NewSource(seed).
type jitterStream struct {
	src      rand.Source // nil until the first draw
	seed     int64
	seeded   bool // src is seeded with seed
	overflow bool // a draw went unrecorded: rec no longer mirrors src
	rec      []int64
	pos      int // next rec entry this run replays
}

// Seed implements rand.Source: it rewinds the stream to the beginning of
// seed's sequence, for the next run.
func (s *jitterStream) Seed(seed int64) {
	s.pos = 0
	if s.seeded && s.seed == seed && !s.overflow {
		return
	}
	s.seed = seed
	s.seeded = false
	s.overflow = false
	s.rec = s.rec[:0]
}

// Int63 implements rand.Source.
func (s *jitterStream) Int63() int64 {
	if s.pos < len(s.rec) {
		v := s.rec[s.pos]
		s.pos++
		return v
	}
	if !s.seeded {
		if s.src == nil {
			s.src = rand.NewSource(s.seed)
		} else {
			s.src.Seed(s.seed)
		}
		s.seeded = true
	}
	v := s.src.Int63()
	if !s.overflow {
		if len(s.rec) < jitterRecordCap {
			s.rec = append(s.rec, v)
			s.pos++
		} else {
			s.overflow = true
		}
	}
	return v
}

// jitterReplay lets a jittered run of an influence set's restricted
// system (SearchWorstCase) draw each kept flow the jitter the full
// system's run draws it. The engine draws jitter only at periodic
// ticks, one draw per tick of a flow with Jitter > 0 in (tick, flow
// index) order, until the flow's packet cap. That order depends on each
// flow's offset, period and cap, never on the network. So before each
// of a kept flow's draws, the restricted run makes, from the same
// stream, the draws of the dropped flows that the full run makes before
// it, and discards them (Engine.skipDrops).
type jitterReplay struct {
	// keep is the full system's index of each simulated flow, ascending.
	keep []int
	// drops lists the flows outside keep that draw jitter, in index
	// order; nil turns the replay off.
	drops []droppedFlow
	// offsets holds each drop's first tick. Phasings.Eval points it into
	// the worker's offset buffer, which every phasing rewrites.
	offsets []noc.Cycles
}

// droppedFlow is a jittered flow a restricted run replays the draws of.
type droppedFlow struct {
	index          int // in the full system
	period, jitter noc.Cycles
}

// newReplay returns the replay of sys's jitter on the restriction of sys
// to keep, or the zero jitterReplay when no replay is needed: no flow
// outside keep draws jitter, or none inside does.
func newReplay(sys *traffic.System, keep []int) jitterReplay {
	var drops []droppedFlow
	kept := false
	for i, k := 0, 0; i < sys.NumFlows(); i++ {
		f := sys.Flow(i)
		if k < len(keep) && keep[k] == i {
			k++
			kept = kept || f.Jitter > 0
		} else if f.Jitter > 0 {
			drops = append(drops, droppedFlow{index: i, period: f.Period, jitter: f.Jitter})
		}
	}
	if !kept {
		return jitterReplay{}
	}
	return jitterReplay{keep: keep, drops: drops}
}

// skipDrops makes the draws that the dropped flows make before kept
// flow i's draw at tick t in the full system's run. The heap e.skip
// holds each dropped flow's next tick, ordered as the draws are.
func (e *Engine) skipDrops(i int, t noc.Cycles) {
	r := &e.cfg.replay
	for len(e.skip) > 0 {
		top := &e.skip[0]
		d := &r.drops[top.flow]
		if top.at > t || top.at == t && d.index > r.keep[i] {
			return
		}
		if c := e.cfg.MaxPacketsPerFlow; c > 0 && (top.at-r.offsets[top.flow])/d.period >= noc.Cycles(c) {
			n := len(e.skip) - 1
			e.skip[0] = e.skip[n]
			e.skip = e.skip[:n]
		} else {
			e.jitter.Int63n(int64(d.jitter) + 1)
			top.at += d.period
		}
		siftDown(e.skip, 0)
	}
}
