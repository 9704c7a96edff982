// Package oracle is the repository's differential verification
// subsystem: it generates random scenarios (platform + flow set),
// computes every registered analysis's bounds through the
// internal/core engine, adversarially attacks those bounds with the
// simulator's randomised phasing search, and checks a declared suite of
// invariants that must hold if the reproduced analyses are sound:
//
//   - safety:            observed latency <= R_XLWX and <= R_IBN for
//     every flow those analyses declare schedulable (the paper's
//     Theorem-level claim);
//   - cross-consistency: R_IBN <= R_XLWX per flow, and any flow set
//     XLWX deems schedulable is schedulable under IBN (Equation 8
//     takes a min, so IBN can never be looser);
//   - buffer monotonicity: growing buf(Ξ) never tightens an IBN bound
//     (Equation 6's bi_ij is non-decreasing in the buffer depth);
//   - MPB classification: observed latencies exceeding the SB or SLA
//     bounds are detected and classified as the *expected* optimism of
//     those pre-MPB analyses (a finding, not a violation) — if they
//     never appear at all, the attack has lost its teeth;
//   - determinism:       rebuilding the engine and re-analysing yields
//     bit-identical results.
//
// On any violation the scenario is shrunk (drop flows, crop the mesh,
// reduce buffers and periods) to a minimal counterexample that still
// violates, and persisted as a replayable JSON artifact (see Artifact).
// cmd/nocfuzz is the CLI front end; FuzzOracleScenario plugs the whole
// cycle into go's native fuzzer.
//
// Everything in this package is deterministic in the seeds it is given:
// generation from Scenario seeds, attacks from CheckConfig.Seed (the
// phasing searches receive a single seeded *rand.Rand derived from it —
// there is no hidden global-rand use anywhere on the verification
// path). A logged (scenario seed, check seed) pair therefore replays a
// violation exactly.
package oracle

import (
	"fmt"
	"math/rand"

	"wormnoc/internal/core"
	"wormnoc/internal/noc"
	"wormnoc/internal/traffic"
	"wormnoc/internal/workload"
)

// MinBufDepth is the smallest buffer depth the oracle generates,
// shrinks to, or attacks with the simulator. Equation 1's zero-load
// latency assumes fully pipelined wormhole forwarding, which needs at
// least two flits of buffering per VC to cover the credit round trip:
// at buf(Ξ)=1 a flit can only advance every other cycle, so even an
// uncontended packet legitimately exceeds C and comparing simulated
// latencies against the analyses is meaningless. The paper's platforms
// use 2..100-flit buffers, so the analyses inherit this precondition.
const MinBufDepth = 2

// GenConfig bounds the random scenario generator. The zero value selects
// defaults tuned for MPB-prone scenarios that simulate quickly: small
// meshes (including 1×N lines, the shape of the paper's didactic
// example), shallow-to-moderate buffers and tight periods relative to
// packet lengths.
type GenConfig struct {
	// MaxDim bounds both mesh dimensions (default 4). Lines of length up
	// to MaxDim+2 are generated alongside W×H meshes.
	MaxDim int
	// MaxFlows bounds the flow-set size (default 8; at least 2 flows are
	// always generated, since a lone flow cannot suffer interference).
	MaxFlows int
	// MaxBuf bounds buf(Ξ) (default 16).
	MaxBuf int
	// MaxLinkLatency bounds linkl(Ξ) (default 2).
	MaxLinkLatency int
	// MaxRouteLatency bounds routl(Ξ) (default 2).
	MaxRouteLatency int
	// PeriodMin/PeriodMax bound the uniform period distribution in
	// cycles (defaults 800, 20_000 — short enough that a Check's
	// simulation horizon covers many releases).
	PeriodMin, PeriodMax noc.Cycles
	// LenMin/LenMax bound packet lengths in flits (defaults 8, 96).
	LenMin, LenMax int
	// JitterProb is the probability that a flow gets release jitter
	// (default 0.25; negative disables jitter entirely, which the
	// exhaustive matrices use — the explicit-state backend certifies the
	// jitter-free canonical class, so jitter-free scenarios keep its
	// searches and proofs in the same class). The jitter drawn is at
	// most a quarter period.
	JitterProb float64
	// MaxJitter, when positive, additionally clamps every drawn jitter
	// to this many cycles (the -jitter knob of nocfuzz exhaust).
	MaxJitter noc.Cycles
}

// MPBGen is the generator preset of the MPB-prone counterexample hunt
// (`nocfuzz run -gen mpb`): longer packets (16..320 flits) against
// tighter periods (600..15_000 cycles) and no release jitter. Default
// scenarios almost never make SB or SLA optimistic (none in 1,000 at
// seed 1, nor in 120 at an 80_000-cycle horizon); these do at that
// horizon (SB once and SLA twice in 120), while XLWX and IBN face the
// same attack.
func MPBGen() GenConfig {
	return GenConfig{PeriodMin: 600, PeriodMax: 15_000, LenMin: 16, LenMax: 320, JitterProb: -1}
}

func (c *GenConfig) setDefaults() {
	if c.MaxDim <= 0 {
		c.MaxDim = 4
	}
	if c.MaxFlows < 2 {
		c.MaxFlows = 8
	}
	if c.MaxBuf <= 0 {
		c.MaxBuf = 16
	}
	if c.MaxLinkLatency <= 0 {
		c.MaxLinkLatency = 2
	}
	if c.MaxRouteLatency < 0 {
		c.MaxRouteLatency = 0
	} else if c.MaxRouteLatency == 0 {
		c.MaxRouteLatency = 2
	}
	if c.PeriodMin <= 0 {
		c.PeriodMin = 800
	}
	if c.PeriodMax < c.PeriodMin {
		c.PeriodMax = 20_000
	}
	if c.LenMin <= 0 {
		c.LenMin = 8
	}
	if c.LenMax < c.LenMin {
		c.LenMax = 96
	}
	if c.JitterProb == 0 {
		c.JitterProb = 0.25
	} else if c.JitterProb < 0 {
		c.JitterProb = 0
	}
}

// Scenario is one generated (or shrunk, or replayed) verification
// subject: a platform plus flow set in its serialisable Document form,
// tagged with the seed that produced it.
type Scenario struct {
	// Seed is the generator seed the scenario came from (0 for scenarios
	// built from external documents).
	Seed int64
	// Doc is the full platform + flow-set description, including the
	// routing policy, so the scenario replays byte-identically from JSON.
	Doc traffic.Document
}

// System materialises the scenario.
func (s *Scenario) System() (*traffic.System, error) { return s.Doc.System() }

// String summarises the scenario on one line.
func (s *Scenario) String() string {
	routing := s.Doc.Mesh.Routing
	if routing == "" {
		routing = "xy"
	}
	return fmt.Sprintf("scenario seed=%d mesh=%dx%d buf=%d linkl=%d routl=%d routing=%s flows=%d",
		s.Seed, s.Doc.Mesh.Width, s.Doc.Mesh.Height, s.Doc.Mesh.BufDepth,
		s.Doc.Mesh.LinkLatency, s.Doc.Mesh.RouteLatency, routing, len(s.Doc.Flows))
}

// Generate builds a random scenario, deterministically in seed. Flow
// sets are biased towards schedulability: when fewer than two flows are
// XLWX-schedulable, periods are stretched (up to three times) so the
// attack surface — bounds worth attacking — stays non-trivial.
func Generate(seed int64, cfg GenConfig) *Scenario {
	cfg.setDefaults()
	rng := rand.New(rand.NewSource(seed))

	// Shape: one third 1×N lines (the didactic geometry generalised),
	// two thirds W×H meshes. Both orientations of a line are exercised
	// so YX routing is not a no-op on them.
	var w, h int
	switch rng.Intn(3) {
	case 0:
		n := 3 + rng.Intn(cfg.MaxDim)
		if rng.Intn(2) == 0 {
			w, h = n, 1
		} else {
			w, h = 1, n
		}
	default:
		w, h = 2+rng.Intn(cfg.MaxDim-1), 2+rng.Intn(cfg.MaxDim-1)
	}
	routing := ""
	if rng.Intn(2) == 1 {
		routing = "yx"
	}
	// buf(Ξ) starts at 2: Equation 1's fully pipelined zero-load latency
	// presumes the credit loop is covered, which 1-flit buffers cannot do
	// (their round trip halves throughput, so even an uncontended packet
	// exceeds C). The paper's platforms use 2..100-flit buffers; the
	// analyses inherit that precondition, so the oracle stays inside it.
	mesh := traffic.MeshSpec{
		Width:        w,
		Height:       h,
		BufDepth:     MinBufDepth + rng.Intn(cfg.MaxBuf-1),
		LinkLatency:  int64(1 + rng.Intn(cfg.MaxLinkLatency)),
		RouteLatency: int64(rng.Intn(cfg.MaxRouteLatency + 1)),
		Routing:      routing,
	}

	nodes := w * h
	numFlows := 2 + rng.Intn(cfg.MaxFlows-1)
	flows := make([]traffic.Flow, numFlows)
	for i := range flows {
		src := rng.Intn(nodes)
		dst := rng.Intn(nodes - 1)
		if dst >= src {
			dst++
		}
		period := cfg.PeriodMin + noc.Cycles(rng.Int63n(int64(cfg.PeriodMax-cfg.PeriodMin)+1))
		length := cfg.LenMin + rng.Intn(cfg.LenMax-cfg.LenMin+1)
		var jitter noc.Cycles
		if rng.Float64() < cfg.JitterProb {
			jitter = noc.Cycles(rng.Int63n(int64(period/4) + 1))
			if cfg.MaxJitter > 0 && jitter > cfg.MaxJitter {
				jitter = cfg.MaxJitter
			}
		}
		flows[i] = traffic.Flow{
			Name:     fmt.Sprintf("g%d", i),
			Period:   period,
			Deadline: period,
			Jitter:   jitter,
			Length:   length,
			Src:      noc.NodeID(src),
			Dst:      noc.NodeID(dst),
		}
	}
	workload.AssignRateMonotonic(flows)

	sc := &Scenario{Seed: seed, Doc: buildDoc(mesh, flows)}
	for attempt := 0; attempt < 3; attempt++ {
		sys, err := sc.Doc.System()
		if err != nil {
			// Unreachable by construction; surface it loudly in Check.
			return sc
		}
		if schedulableCount(sys) >= 2 || numFlows < 3 {
			return sc
		}
		for i := range flows {
			flows[i].Period *= 4
			flows[i].Deadline = flows[i].Period
		}
		sc.Doc = buildDoc(mesh, flows)
	}
	return sc
}

func buildDoc(mesh traffic.MeshSpec, flows []traffic.Flow) traffic.Document {
	doc := traffic.Document{Mesh: mesh, Flows: make([]traffic.FlowSpec, len(flows))}
	for i, f := range flows {
		doc.Flows[i] = traffic.FlowSpec{
			Name:     f.Name,
			Priority: f.Priority,
			Period:   int64(f.Period),
			Deadline: int64(f.Deadline),
			Jitter:   int64(f.Jitter),
			Length:   f.Length,
			Src:      int(f.Src),
			Dst:      int(f.Dst),
		}
	}
	return doc
}

func schedulableCount(sys *traffic.System) int {
	res, err := core.Analyze(sys, core.Options{Method: core.XLWX})
	if err != nil {
		return 0
	}
	n := 0
	for _, fr := range res.Flows {
		if fr.Status == core.Schedulable {
			n++
		}
	}
	return n
}

// splitmix64 derives independent sub-seeds from one root seed; it is the
// finaliser of the SplitMix64 generator, which maps distinct inputs to
// well-distributed outputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// DeriveSeed folds a stream index into a root seed, so every phasing
// search of one Check has its own deterministic, decorrelated seed.
func DeriveSeed(root int64, stream int64) int64 {
	return int64(splitmix64(uint64(root) ^ splitmix64(uint64(stream))))
}
