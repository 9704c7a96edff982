package exhaustive

import (
	"fmt"

	"wormnoc/internal/noc"
)

// Reduction selects which sound state-space reductions Explore applies.
// Both reductions are proof-preserving — they change how many phasings
// are simulated, never which worst cases, censor flags or Proven
// verdicts come out — so the zero value enables both and the other
// values exist as escape hatches for differential validation
// (`nocfuzz exhaust -reduce=...`) and for the equivalence property
// tests that certify the reductions against the unreduced grid.
type Reduction int

const (
	// ReduceAll applies both the shift-symmetry quotient and the
	// contention-cluster decomposition (the default).
	ReduceAll Reduction = iota
	// ReduceNone explores the raw offset grid exactly as the pre-
	// reduction explorer did; the enumeration order, witnesses and
	// statistics are bit-identical to that behaviour.
	ReduceNone
	// ReduceSymmetry applies only the shift-symmetry quotient, over the
	// whole flow set at once.
	ReduceSymmetry
	// ReduceClusters applies only the cluster decomposition, exploring
	// each cluster's raw sub-grid.
	ReduceClusters
)

// symmetry reports whether the mode canonicalises offset vectors.
func (r Reduction) symmetry() bool { return r == ReduceAll || r == ReduceSymmetry }

// clusters reports whether the mode decomposes the flow set into
// contention clusters.
func (r Reduction) clusters() bool { return r == ReduceAll || r == ReduceClusters }

// String returns the flag spelling of the mode.
func (r Reduction) String() string {
	switch r {
	case ReduceAll:
		return "all"
	case ReduceNone:
		return "none"
	case ReduceSymmetry:
		return "symmetry"
	case ReduceClusters:
		return "clusters"
	}
	return fmt.Sprintf("Reduction(%d)", int(r))
}

// ParseReduction parses the -reduce flag spelling of a Reduction.
func ParseReduction(s string) (Reduction, error) {
	switch s {
	case "all":
		return ReduceAll, nil
	case "none":
		return ReduceNone, nil
	case "symmetry":
		return ReduceSymmetry, nil
	case "clusters":
		return ReduceClusters, nil
	}
	return ReduceAll, fmt.Errorf("exhaustive: unknown reduction %q (want none, symmetry, clusters or all)", s)
}

// enum enumerates the offset grid of one flow group as a contiguous,
// indexable sequence — the property the chunked deterministic frontier
// rests on. In raw mode it is the plain mixed-radix product grid
// Π[0,Pᵢ) with the last flow varying fastest (the pre-reduction
// order). In canonical mode it enumerates only the shift-symmetry
// representatives: the vectors with min offset 0. Those dominate their
// whole orbit — for any vector o with δ = min oᵢ > 0, the run from
// o − δ is the run from o shifted δ cycles earlier with δ extra cycles
// of observation, so every latency (and every censored or deadline-
// missing packet) o exhibits is exhibited by its representative too —
// which is why enumerating the Π Pᵢ − Π (Pᵢ−1) representatives proves
// the same class as the Π Pᵢ grid (DESIGN.md §15).
//
// Canonical vectors are ordered by their first zero coordinate j, then
// lexicographically by the remaining digits (last fastest): digits
// before j range over [1,Pᵢ), digit j is 0, digits after j over
// [0,Pᵢ). prefix[j] is the rank of block j's first vector.
type enum struct {
	periods   []int64
	canonical bool
	size      int64
	prefix    []int64
}

// newEnum builds the enumerator for one group's periods. The caller
// guarantees Π periods fits int64 (Plan's grid guard).
func newEnum(periods []int64, canonical bool) enum {
	e := enum{periods: periods, canonical: canonical}
	if !canonical {
		e.size = 1
		for _, p := range periods {
			e.size *= p
		}
		return e
	}
	n := len(periods)
	// suf[k] = Π_{i>=k} Pᵢ; pre = Π_{i<j} (Pᵢ−1), built incrementally.
	suf := make([]int64, n+1)
	suf[n] = 1
	for i := n - 1; i >= 0; i-- {
		suf[i] = suf[i+1] * periods[i]
	}
	e.prefix = make([]int64, n+1)
	pre := int64(1)
	for j := 0; j < n; j++ {
		e.prefix[j+1] = e.prefix[j] + pre*suf[j+1]
		pre *= periods[j] - 1
	}
	e.size = e.prefix[n]
	return e
}

// decode expands rank k into the group-local offset vector.
func (e *enum) decode(k int64, out []noc.Cycles) {
	if !e.canonical {
		for i := len(e.periods) - 1; i >= 0; i-- {
			out[i] = noc.Cycles(k % e.periods[i])
			k /= e.periods[i]
		}
		return
	}
	j := 0
	for e.prefix[j+1] <= k {
		j++
	}
	k -= e.prefix[j]
	for i := len(e.periods) - 1; i >= 0; i-- {
		switch {
		case i > j:
			out[i] = noc.Cycles(k % e.periods[i])
			k /= e.periods[i]
		case i == j:
			out[i] = 0
		default:
			q := e.periods[i] - 1
			out[i] = noc.Cycles(1 + k%q)
			k /= q
		}
	}
}
