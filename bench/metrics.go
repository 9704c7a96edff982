package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// metricDef describes one metric the benchmark emits. BENCHMARK.json
// lists the same names, units and directions (TestMetricTablesMatchBenchmarkJSON
// keeps the two in step) and adds the regression bounds.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd are the metrics an untraced run reports for every workload.
// An "op" is a request for the serve-* workloads and one scenario check
// for verify and prove; timed.endToEnd defines all but setup_s.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"maxrss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"}, // median of the run's timed set-ups
}

// perLayer are the metrics a traced run reports for every workload; a
// layer a workload never enters reports 0. Names start with the module
// (or runtime) the number belongs to. "_ms.p50" metrics of a function
// are taken over its calls, those of a request stage (decode, key,
// encode, handler, residual, overhead) over ops.
var perLayer = []metricDef{
	{"http.overhead_ms.p50", "ms", "lower"},
	{"serve.handler_ms.p50", "ms", "lower"},
	{"serve.handler_ms.p99", "ms", "lower"},
	{"traffic.decode_ms.p50", "ms", "lower"},
	{"canon.key_ms.p50", "ms", "lower"},
	{"serve.encode_ms.p50", "ms", "lower"},
	{"serve.residual_ms.p50", "ms", "lower"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.shed_ratio", "ratio", "lower"},
	{"traffic.system_ms.p50", "ms", "lower"},
	{"core.sets_ms.p50", "ms", "lower"},
	{"core.fixedpoint_ms.p50", "ms", "lower"},
	{"core.incremental_step_ms.p50", "ms", "lower"},
	{"core.iterations_per_flow", "count", "lower"},
	{"core.memo_hit_ratio", "ratio", "higher"},
	{"client.cpu_ms_per_op", "ms", "lower"},
	{"client.maxrss_mb", "MB", "lower"},
	{"oracle.generate_ms.p50", "ms", "lower"},
	{"sim.search_ms.p50", "ms", "lower"},
	{"sim.runs_per_scenario", "count", "lower"},
	{"sim.runs_per_s", "1/s", "higher"},
	{"sim.cycles_per_s", "1/s", "higher"},
	{"sim.reference_ms.p50", "ms", "lower"},
	{"core.analyze_all_ms.p50", "ms", "lower"},
	{"core.incremental_chain_ms.p50", "ms", "lower"},
	{"exhaustive.explore_ms.p50", "ms", "lower"},
	{"exhaustive.explore_ms.p99", "ms", "lower"},
	{"exhaustive.states_per_scenario", "count", "lower"},
	{"exhaustive.states_per_s", "1/s", "higher"},
	{"exhaustive.reduction_ratio", "ratio", "lower"},
	{"exhaustive.complete_ratio", "ratio", "higher"},
	{"oracle.residual_ms.p50", "ms", "lower"},
	{"runtime.gc_cpu_fraction", "ratio", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// metricValue is one measured number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line a run prints: the contract with the caller.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultSchema tags the result files; bump it on any incompatible change.
const resultSchema = "wormnoc-bench-result/1"

// result is the file one run writes: its summary plus what compare needs
// to group runs (workload, seed, traced or not) and the digest of the
// verified outputs.
type result struct {
	Schema   string  `json:"schema"`
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Digest   string  `json:"digest"`
	summary
}

// fill sets the metrics of defs from values, which must hold every name.
func fill(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// writeResult stores r as dir/<workload>-seed<seed>[-trace].json.
func writeResult(dir string, r *result) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("%s-seed%d", r.Workload, r.Seed)
	if r.Trace {
		name += "-trace"
	}
	path := filepath.Join(dir, name+".json")
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

// readResult loads one result file.
func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, resultSchema)
	}
	return &r, nil
}

// nearestRank returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank method: the smallest sample with at least p% of all
// samples at or below it. It returns 0 for no samples, which is how a
// layer a workload never enters reports.
func nearestRank(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n) / 100))
	rank = min(max(rank, 1), n)
	return sorted[rank-1]
}

// pct sorts a copy of xs and returns its p-th nearest-rank percentile.
func pct(xs []float64, p float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return nearestRank(s, p)
}

// quartiles returns the first, second and third quartile of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// method the benchmark's spreads are defined by. It needs two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0 (a count that never happened).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
