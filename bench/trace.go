package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer during a traced replay. Spans of
// one replayed op share Op; Parent is the ID of the op's root span (0
// for the root itself), which covers its children in time.
type span struct {
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. Replays
// are single-threaded, so it is not safe for concurrent use.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(op int64, parent int, name string) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// time runs fn inside a span.
func (t *tracer) time(op int64, parent int, name string, fn func()) time.Duration {
	id := t.begin(op, parent, name)
	fn()
	return t.end(id)
}

// perCall returns the duration in ms of every span called name.
func (t *tracer) perCall(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// perOp returns, for every op holding at least one span of any of names,
// the summed duration in ms of those spans, keyed by op.
func (t *tracer) perOp(names ...string) map[int64]float64 {
	out := make(map[int64]float64)
	for _, s := range t.spans {
		for _, n := range names {
			if s.Name == n {
				out[s.Op] += float64(s.End-s.Start) / 1e6
			}
		}
	}
	return out
}

// values returns the values of m (order is irrelevant to percentiles).
func values(m map[int64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// residual returns, per op, the duration of the whole span minus the
// stage spans replayed to decompose it: the time no replayed layer
// accounts for.
func (t *tracer) residual(whole string, stages ...string) map[int64]float64 {
	out := t.perOp(whole)
	parts := t.perOp(stages...)
	for op := range out {
		out[op] -= parts[op]
	}
	return out
}

// accounting prints, summed over the replayed ops, how the whole span
// splits into its stages and the residual.
func (t *tracer) accounting(whole string, stages ...string) string {
	var sum, parts float64
	for _, v := range t.perOp(whole) {
		sum += v
	}
	for _, v := range t.perOp(stages...) {
		parts += v
	}
	return fmt.Sprintf("replayed %s %.3f ms = layers %.3f ms + residual %.3f ms", whole, sum, parts, sum-parts)
}

// overhead estimates the share of the replay's wall time spent recording
// spans: a calibrated per-span cost times the spans recorded.
func (t *tracer) overhead(wall time.Duration) float64 {
	const n = 20000
	cal := newTracer()
	cal.spans = make([]span, 0, n)
	start := time.Now()
	for range n {
		cal.time(0, 0, "calibrate", func() {})
	}
	perSpan := float64(time.Since(start)) / n
	return ratio(perSpan*float64(len(t.spans)), float64(wall))
}

// write stores the spans as a JSON array, one span per line, at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString("[\n")
	for i, s := range t.spans {
		b, err := json.Marshal(s)
		if err != nil {
			f.Close()
			return err
		}
		w.Write(b)
		if i < len(t.spans)-1 {
			w.WriteByte(',')
		}
		w.WriteByte('\n')
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
