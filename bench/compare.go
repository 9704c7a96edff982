package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// minRuns is the fewest untraced runs per workload compare accepts on
// each side: fewer give no usable quartiles.
const minRuns = 5

// benchmarkDef is the part of BENCHMARK.json compare reads.
type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmark(path string) (*benchmarkDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchmarkDef
	if err := json.Unmarshal(b, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

// runs holds, per workload and metric, the values of a directory's
// untraced runs.
type runs map[string]map[string][]float64

// loadRuns reads every result file in dir. A run that failed is an error:
// its numbers describe a system that gave wrong answers.
func loadRuns(dir string) (runs, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := make(runs)
	for _, p := range paths {
		r, err := readResult(p)
		if err != nil {
			return nil, err
		}
		if r.Trace {
			continue
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: the run failed %d of %d ops", p, r.Failed, r.Attempted)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out, nil
}

// row is compare's verdict on one workload × metric.
type row struct {
	workload, metric, unit string
	a, b                   [3]float64 // quartiles of each side
	worse                  float64    // change of the median in the metric's bad direction, as a share of A's
	spread                 float64    // the wider side's quartile distance over its median
	bound                  float64
	verdict                string // "ok", "regressed" or "unresolved"
}

// compareRuns judges B against A for every workload both hold and every
// end-to-end metric: "regressed" when B's median is worse than A's by
// more than the bound, "unresolved" when either side's run-to-run spread
// exceeds the bound (unless every run of B beats every run of A), "ok"
// otherwise.
func compareRuns(def *benchmarkDef, a, b runs) ([]row, error) {
	var rows []row
	for _, w := range def.Workloads {
		if a[w.Name] == nil && b[w.Name] == nil {
			continue
		}
		for _, m := range def.EndToEnd {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) < minRuns || len(vb) < minRuns {
				return nil, fmt.Errorf("%s %s: %d and %d runs, need %d on each side", w.Name, m.Name, len(va), len(vb), minRuns)
			}
			r := row{workload: w.Name, metric: m.Name, unit: m.Unit, bound: m.Bound}
			r.a[0], r.a[1], r.a[2] = quartiles(va)
			r.b[0], r.b[1], r.b[2] = quartiles(vb)
			r.worse = ratio(r.b[1]-r.a[1], r.a[1])
			if m.Better == "higher" {
				r.worse = -r.worse
			}
			r.spread = max(ratio(r.a[2]-r.a[0], r.a[1]), ratio(r.b[2]-r.b[0], r.b[1]))
			switch {
			case r.spread > r.bound && !allBetter(va, vb, m.Better):
				r.verdict = "unresolved"
			case r.worse > r.bound:
				r.verdict = "regressed"
			default:
				r.verdict = "ok"
			}
			rows = append(rows, r)
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("no workload has runs on both sides")
	}
	return rows, nil
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, better string) bool {
	for _, x := range a {
		for _, y := range b {
			if (better == "higher" && y <= x) || (better == "lower" && y >= x) {
				return false
			}
		}
	}
	return true
}

// runCompare implements `compare A/ B/` from the repository root, where
// BENCHMARK.json holds the bounds: it prints every verdict and exits 3
// when any metric regressed.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare A-dir B-dir  (result files of untraced runs, at least 5 per workload each)")
		return 2
	}
	rows, err := compareDirs("BENCHMARK.json", args[0], args[1])
	if err != nil {
		fmt.Fprintf(stderr, "bench: compare: %v\n", err)
		return 2
	}
	return printRows(stdout, rows)
}

func compareDirs(benchPath, dirA, dirB string) ([]row, error) {
	def, err := readBenchmark(benchPath)
	if err != nil {
		return nil, err
	}
	a, err := loadRuns(dirA)
	if err != nil {
		return nil, err
	}
	b, err := loadRuns(dirB)
	if err != nil {
		return nil, err
	}
	return compareRuns(def, a, b)
}

func printRows(w io.Writer, rows []row) int {
	fmt.Fprintf(w, "%-14s %-14s %-36s %-36s %8s %7s %7s  %s\n",
		"workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "worse", "spread", "bound", "verdict")
	code := 0
	for _, r := range rows {
		side := func(q [3]float64) string { return fmt.Sprintf("%.4g [%.4g, %.4g] %s", q[1], q[0], q[2], r.unit) }
		fmt.Fprintf(w, "%-14s %-14s %-36s %-36s %+7.2f%% %6.2f%% %6.2f%%  %s\n",
			r.workload, r.metric, side(r.a), side(r.b), 100*r.worse, 100*r.spread, 100*r.bound, r.verdict)
		if r.verdict == "regressed" {
			code = 3
		}
	}
	return code
}
