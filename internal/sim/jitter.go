package sim

import "math/rand"

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
