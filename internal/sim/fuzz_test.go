package sim_test

import (
	"fmt"
	"testing"

	"wormnoc/internal/noc"
	"wormnoc/internal/oracle"
	"wormnoc/internal/sim"
)

// FuzzEngineMatchesReference drives the event-driven engine and the
// reference engine over generated systems on every platform the fast
// path (DESIGN.md §13) batches: linkl 1–3, routl 0–5, buf 2–8, with all
// flows released at once, at random offsets, or with jitter injected.
// A fresh engine and a warm one, reused after a run of another phasing,
// must return the reference's whole Result (Stats aside) with the
// runtime invariants checked after every cycle and batch.
func FuzzEngineMatchesReference(f *testing.F) {
	for _, s := range []struct {
		seed                    int64
		linkl, routl, buf, mode uint8
		dur                     uint16
	}{
		{1, 0, 0, 2, 0, 3000}, {2, 1, 0, 4, 0, 4000}, {3, 1, 2, 2, 1, 5000},
		{4, 0, 2, 6, 2, 3000}, {5, 2, 3, 0, 3, 6000}, {6, 1, 1, 1, 0, 8000},
		// A header among a batch's landings on linkl=3 routl=3, a routl=4
		// header in flight on linkl=3, a wake due inside a would-be batch
		// on routl=5, and a buffer's occupancy high-water mark set only by
		// a batch's last landing.
		{-23, 2, 3, 0, 0, 5977}, {-184, 2, 4, 0, 2, 4080}, {-196, 0, 5, 1, 2, 8314},
		{93, 2, 2, 4, 3, 2765},
	} {
		f.Add(s.seed, s.linkl, s.routl, s.buf, s.dur, s.mode)
	}
	gen := oracle.GenConfig{MaxDim: 3, MaxFlows: 6, PeriodMin: 100, PeriodMax: 3_000, LenMin: 2, LenMax: 40}
	f.Fuzz(func(t *testing.T, seed int64, linkl, routl, buf uint8, dur uint16, mode uint8) {
		sc := oracle.Generate(seed, gen)
		sc.Doc.Mesh.LinkLatency = 1 + int64(linkl%3)
		sc.Doc.Mesh.RouteLatency = int64(routl % 6)
		sc.Doc.Mesh.BufDepth = 2 + int(buf%7)
		sys, err := sc.System()
		if err != nil {
			t.Skipf("seed %d: %v", seed, err)
		}
		cfg := sim.Config{Duration: 200 + noc.Cycles(dur%10_000)}
		if mode&1 != 0 {
			cfg.Offsets = randomOffsets(sys, seed)
		}
		if mode&2 != 0 {
			cfg.InjectJitter, cfg.JitterSeed = true, seed
		}
		label := fmt.Sprintf("seed %d (%s) duration %d mode %d", seed, sc, cfg.Duration, mode%4)
		ref, err := sim.RunReference(sys, cfg)
		if err != nil {
			t.Fatalf("%s: reference: %v", label, err)
		}
		fresh, err := sim.Run(sys, sim.Checked(cfg))
		if err != nil {
			t.Fatalf("%s: fresh: %v", label, err)
		}
		mustEqualResults(t, label+" fresh", ref, fresh)
		eng := sim.NewEngine(sys)
		other := cfg
		other.Offsets = randomOffsets(sys, seed+1)
		if _, err := eng.Run(sim.Checked(other)); err != nil {
			t.Fatalf("%s: warm-up: %v", label, err)
		}
		warm, err := eng.Run(sim.Checked(cfg))
		if err != nil {
			t.Fatalf("%s: warm: %v", label, err)
		}
		mustEqualResults(t, label+" warm", ref, warm)
	})
}
