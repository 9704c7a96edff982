package sim

import (
	"math/rand"
	"testing"
)

// TestJitterStreamMatchesFreshSource drives one jitterStream through a
// sequence of runs — seed switches A→B→A, runs that stop mid-stream
// (shorter than the recorded prefix), runs that pass the record cap and
// runs right after them — and checks every Int63n draw against a
// freshly seeded rand.NewSource, with bounds covering the power-of-two,
// Int31n and rejection-sampling paths of rand.Rand.Int63n.
func TestJitterStreamMatchesFreshSource(t *testing.T) {
	var s jitterStream
	r := rand.New(&s)
	bounds := []int64{1, 2, 3, 7, 64, 1000, 1<<40 + 3, 1<<62 + 1}
	runs := []struct {
		seed  int64
		draws int
	}{
		{1, 0}, {1, 10}, {1, 25}, {1, 5}, {2, 7}, {1, 30}, {2, 40}, {2, 3},
		{1, jitterRecordCap + 100}, {1, 50}, {1, jitterRecordCap + 1}, {1, 3},
		{3, jitterRecordCap}, {3, jitterRecordCap + 5}, {3, 12}, {1, 0}, {1, 9},
	}
	for i, run := range runs {
		s.Seed(run.seed)
		want := rand.New(rand.NewSource(run.seed))
		for k := 0; k < run.draws; k++ {
			n := bounds[k%len(bounds)]
			if got, w := r.Int63n(n), want.Int63n(n); got != w {
				t.Fatalf("run %d (seed %d): draw %d of Int63n(%d) = %d, fresh source gives %d",
					i, run.seed, k, n, got, w)
			}
		}
		if len(s.rec) > jitterRecordCap {
			t.Fatalf("run %d: recorded %d draws, cap is %d", i, len(s.rec), jitterRecordCap)
		}
	}
}

// TestJitterStreamSeedsLazily: rewinding costs no seeding, so runs that
// never draw — every jitter-free run — never seed the inner source.
func TestJitterStreamSeedsLazily(t *testing.T) {
	var s jitterStream
	for seed := int64(0); seed < 4; seed++ {
		s.Seed(seed)
	}
	if s.src != nil || s.seeded {
		t.Fatal("a stream that never drew was seeded")
	}
	s.Seed(5)
	s.Int63()
	if !s.seeded || len(s.rec) != 1 {
		t.Fatalf("first draw: seeded=%v recorded=%d, want seeded and 1", s.seeded, len(s.rec))
	}
	s.Seed(5)
	s.Int63()
	s.Int63()
	if len(s.rec) != 2 {
		t.Fatalf("same-seed rewind replayed then extended to %d draws, want 2", len(s.rec))
	}
}
