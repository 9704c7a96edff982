package main

import (
	"fmt"
	"slices"
	"sort"

	"wormnoc/internal/oracle"
)

// Runs under different seeds must do the same amount of work, or the
// spread between them swamps any regression bound worth setting. So a
// workload's inputs come from two streams: the seed's stream decides
// their content, and the shape stream — the same for every seed — decides
// each op's kind and each input's cost class.

// shapeSeed roots the shape stream.
const shapeSeed = 0x5eed

// shape returns op i's draw from the shape stream.
func shape(i int64) uint64 { return uint64(oracle.DeriveSeed(shapeSeed, i)) }

// drawer generates the input of one stream seed and an estimate of the
// work it causes, computed from the input alone; false leaves the input
// out of the workload.
type drawer[T any] func(seed int64) (T, float64, bool)

// costClasses is the number of cost classes inputs are sorted into. Class
// k holds the costs between the shape stream's quantiles 1-(1-k/K)² and
// 1-(1-(k+1)/K)²: 6% of inputs in the cheapest class, 0.1% in the
// dearest, so the heavy tail that decides a run's throughput and 99th
// percentile is pinned finely while every class stays common enough for
// any seed's stream to fill its share quickly.
const costClasses = 32

// strata are the cost classes of a workload's inputs, in the order the
// shape stream yields them.
type strata struct {
	cuts []float64 // upper cost of each class but the last
	seq  []int     // class of input i
}

// newStrata cuts the costs of the first n inputs draw accepts from the
// shape stream into costClasses classes.
func newStrata[T any](n int, draw drawer[T]) strata {
	costs := make([]float64, 0, n)
	for j := int64(0); len(costs) < n; j++ {
		if _, c, ok := draw(oracle.DeriveSeed(shapeSeed, j)); ok {
			costs = append(costs, c)
		}
	}
	sorted := slices.Sorted(slices.Values(costs))
	s := strata{seq: make([]int, n)}
	for k := 1; k < costClasses; k++ {
		rest := float64(costClasses-k) / costClasses
		s.cuts = append(s.cuts, sorted[int(float64(n)*(1-rest*rest))])
	}
	for i, c := range costs {
		s.seq[i] = s.class(c)
	}
	return s
}

func (s strata) class(cost float64) int {
	return sort.Search(len(s.cuts), func(k int) bool { return cost < s.cuts[k] })
}

// drawStrata generates len(s.seq) inputs from seed's stream: input i is the
// next unused one in class s.seq[i].
func drawStrata[T any](s strata, seed int64, draw drawer[T]) ([]T, error) {
	queues := make(map[int][]T)
	out := make([]T, len(s.seq))
	limit := int64(20*len(s.seq) + 10_000)
	var j int64
	for i, k := range s.seq {
		for len(queues[k]) == 0 {
			if j == limit {
				return nil, fmt.Errorf("no input of cost class %d among %d drawn from seed %d", k, j, seed)
			}
			v, c, ok := draw(oracle.DeriveSeed(seed, j))
			j++
			if ok {
				got := s.class(c)
				queues[got] = append(queues[got], v)
			}
		}
		out[i], queues[k] = queues[k][0], queues[k][1:]
	}
	return out, nil
}
