package main

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// timed is what a closed-loop timed phase observed.
type timed struct {
	lat    []float64     // latency of every completed op in completion order, ms
	cpu    time.Duration // CPU the program under test used
	rss    []float64     // its peak RSS in each second, MiB
	failed int           // ops that returned an error
	errs   []string      // the first few errors
	wall   time.Duration
}

// tailGroup is the fewest ops a 99th percentile is taken over, so that
// ten of them lie beyond it.
const tailGroup = 1000

// endToEnd returns the timed phase's end-to-end metrics but set-up time.
// The 99th percentile is the median over consecutive groups of at least
// tailGroup ops (in completion order) of each group's 99th percentile,
// and the peak RSS the median over the phase's seconds of each second's
// peak, so that one stall or one collection of the machine moves one
// group or one second rather than the run.
func (t *timed) endToEnd() map[string]float64 {
	n := len(t.lat)
	groups := max(n/tailGroup, 1)
	var tails []float64
	for g := range groups {
		tails = append(tails, pct(t.lat[g*n/groups:(g+1)*n/groups], 99))
	}
	return map[string]float64{
		"ops_per_s":     float64(n) / t.wall.Seconds(),
		"p50_ms":        pct(t.lat, 50),
		"p99_ms":        pct(tails, 50),
		"cpu_ms_per_op": ms(t.cpu) / float64(n),
		"maxrss_mb":     pct(t.rss, 50),
	}
}

// closedLoop runs workers that each take the next op index (0, 1, 2, …)
// as soon as their previous op has completed, so a slower system receives
// less load. Taking stops once d has elapsed and at least minOps ops have
// been taken, so exactly the ops [0, len(lat)) run, and every op below
// minOps is among them. do(w, i) runs op i on worker w and returns its
// latency. pid is the process under test, whose CPU time and per-second
// peak RSS the loop measures.
func closedLoop(workers, minOps int, d time.Duration, pid int, do func(w, i int) (time.Duration, error)) (*timed, error) {
	type done struct {
		at  time.Duration
		lat float64
	}
	var (
		next   atomic.Int64
		mu     sync.Mutex
		t      = &timed{}
		ops    = make([][]done, workers)
		wg     sync.WaitGroup
		rssErr error
	)
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	if err := resetPeakRSS(pid); err != nil {
		return nil, err
	}
	// peak reads pid's peak RSS since the previous reading and restarts it.
	peak := func() error {
		v, err := procPeakRSSMB(pid)
		if err == nil {
			err = resetPeakRSS(pid)
		}
		t.rss = append(t.rss, v)
		return err
	}
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if rssErr = peak(); rssErr != nil {
					return
				}
			}
		}
	}()

	start := time.Now()
	deadline := start.Add(d)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= minOps && time.Now().After(deadline) {
					return
				}
				lat, err := do(w, i)
				ops[w] = append(ops[w], done{time.Since(start), ms(lat)})
				if err != nil {
					mu.Lock()
					t.failed++
					if len(t.errs) < 5 {
						t.errs = append(t.errs, fmt.Sprintf("op %d: %v", i, err))
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	t.wall = time.Since(start)
	close(stop)
	<-sampled
	if rssErr != nil {
		return nil, rssErr
	}
	// A phase shorter than a second still has its peak.
	if len(t.rss) == 0 {
		if err := peak(); err != nil {
			return nil, err
		}
	}
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	t.cpu = cpu1 - cpu0
	all := slices.Concat(ops...)
	slices.SortFunc(all, func(a, b done) int { return cmp.Compare(a.at, b.at) })
	for _, o := range all {
		t.lat = append(t.lat, o.lat)
	}
	return t, nil
}
