package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		name   string
		sorted []float64
		p      float64
		want   float64
	}{
		{"empty reports zero", nil, 50, 0},
		{"single sample", []float64{7}, 99, 7},
		{"median of even count takes the lower middle", []float64{1, 2, 3, 4}, 50, 2},
		{"median of odd count", []float64{1, 2, 3}, 50, 2},
		{"p99 of 100 is the 99th", hundred, 99, 99},
		{"p100 is the maximum", hundred, 100, 100},
		{"tiny p is the minimum", hundred, 0.001, 1},
		{"p99 of 10 is the maximum", hundred[:10], 99, 10},
		{"p50 of 2", []float64{1, 9}, 50, 1},
	} {
		if got := nearestRank(tc.sorted, tc.p); got != tc.want {
			t.Errorf("%s: nearestRank(%v, %v) = %v, want %v", tc.name, tc.sorted, tc.p, got, tc.want)
		}
	}
	if got := pct([]float64{3, 1, 2}, 50); got != 2 {
		t.Errorf("pct sorts its input: got %v, want 2", got)
	}
}

// TestQuartiles pins the values Python's statistics.quantiles(xs, n=4)
// returns for the same inputs.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func checkNames(t *testing.T, names []string) {
	t.Helper()
	seen := make(map[string]bool)
	for _, n := range names {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
}

func TestNames(t *testing.T) {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	checkNames(t, names)
	names = nil
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		names = append(names, d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %s", d.Name, d.Unit, unitRE)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	checkNames(t, names)
}

// TestMetricTablesMatchBenchmarkJSON holds BENCHMARK.json to the metrics
// and workloads this program emits, and to the contract on its bounds.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	def, err := readBenchmark(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	if len(def.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, program emits %d", len(def.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range def.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %s %s %s, program emits %s %s %s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range def.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	if len(def.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, program emits %d", len(def.PerLayer), len(perLayer))
	}
	for i, m := range def.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %s %s %s, program emits %s %s %s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	in := &result{Schema: resultSchema, Workload: "verify", Seed: 7, Seconds: 15, Trace: true, Digest: "abc",
		summary: summary{Correct: true, Attempted: 1234, Failed: 0, Metrics: map[string]metricValue{
			"p50_ms": {Value: 1.2034, Unit: "ms"}, "setup_s": {Value: 0.8127, Unit: "s"},
		}}}
	path, err := writeResult(t.TempDir(), in)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "verify-seed7-trace.json" {
		t.Errorf("result written to %s", path)
	}
	out, err := readResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the result:\n in %+v\nout %+v", in, out)
	}
	// The summary line is exactly the four keys of the output contract.
	b, err := json.Marshal(in.summary)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]any
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Errorf("summary line %s", b)
	}
}

func TestCompareVerdicts(t *testing.T) {
	def := &benchmarkDef{}
	def.Workloads = append(def.Workloads, struct {
		Name string `json:"name"`
	}{"w"})
	for _, m := range []struct {
		name, better string
	}{{"steady", "lower"}, {"slower", "lower"}, {"noisy", "lower"}, {"noisy-but-faster", "higher"}, {"faster", "higher"}} {
		def.EndToEnd = append(def.EndToEnd, struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		}{m.name, "ms", m.better, 0.05})
	}
	a := runs{"w": {
		"steady":           {100, 101, 99, 100, 100},
		"slower":           {100, 101, 99, 100, 100},
		"noisy":            {100, 130, 80, 100, 120},
		"noisy-but-faster": {100, 130, 80, 100, 120},
		"faster":           {100, 101, 99, 100, 100},
	}}
	b := runs{"w": {
		"steady":           {102, 101, 100, 102, 101},
		"slower":           {110, 111, 109, 110, 110},
		"noisy":            {100, 130, 80, 100, 120},
		"noisy-but-faster": {200, 230, 180, 200, 220},
		"faster":           {150, 151, 149, 150, 150},
	}}
	rows, err := compareRuns(def, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"steady": "ok", "slower": "regressed", "noisy": "unresolved", "noisy-but-faster": "ok", "faster": "ok"}
	for _, r := range rows {
		if r.verdict != want[r.metric] {
			t.Errorf("%s: verdict %s (worse %.3f, spread %.3f), want %s", r.metric, r.verdict, r.worse, r.spread, want[r.metric])
		}
	}
	var out bytes.Buffer
	if code := printRows(&out, rows); code != 3 {
		t.Errorf("a regression exits %d, want 3", code)
	}
	if code := printRows(&out, rows[:1]); code != 0 {
		t.Errorf("no regression exits %d, want 0", code)
	}
	b["w"]["steady"] = b["w"]["steady"][:4]
	if _, err := compareRuns(def, a, b); err == nil {
		t.Error("compare accepted 4 runs on one side")
	}
}

// TestSmoke runs every workload, untraced and traced, at a tiny size
// against a freshly built nocserve.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs nocserve")
	}
	dir := t.TempDir()
	nocserve := filepath.Join(dir, "nocserve")
	if out, err := exec.Command("go", "build", "-o", nocserve, "wormnoc/cmd/nocserve").CombinedOutput(); err != nil {
		t.Fatalf("building nocserve: %v\n%s", err, out)
	}
	tiny := map[string]sizes{
		"serve-hot":     {minOps: 300, pool: 8, replay: 20, setups: 2},
		"serve-explore": {minOps: 8, warm: 1, replay: 2, setups: 2},
		"verify":        {minOps: 16, pool: 24, replay: 3, setups: 2},
		"prove":         {minOps: 16, pool: 24, replay: 3, setups: 2},
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var stdout, stderr bytes.Buffer
			r := &run{seed: 3, seconds: 10 * time.Millisecond, trace: traced, nocserve: nocserve, sizes: tiny[w.name], log: &stderr}
			res, err := execute(w, r, filepath.Join(dir, "out"), &stdout)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.name, traced, err, stderr.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < tiny[w.name].minOps {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s", w.name, traced, res.Correct, res.Failed, res.Attempted, stdout.String())
			}
			defs := endToEnd
			if traced {
				defs = perLayer
				if _, err := os.Stat(filepath.Join(dir, "out", "trace", w.name+"-seed3.spans.json")); err != nil {
					t.Errorf("%s: no spans written: %v", w.name, err)
				}
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var last summary
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not the summary: %v", w.name, err)
			}
			var names []string
			for name := range last.Metrics {
				names = append(names, name)
			}
			checkNames(t, names)
			for _, d := range defs {
				if !strings.Contains(stdout.String(), "  "+d.Name+" ") {
					t.Errorf("%s traced=%v: %s not printed", w.name, traced, d.Name)
				}
				if v, ok := last.Metrics[d.Name]; !ok || v.Unit != d.Unit {
					t.Errorf("%s traced=%v: summary has %s = %+v", w.name, traced, d.Name, v)
				}
			}
			if len(last.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: summary has %d metrics, want %d", w.name, traced, len(last.Metrics), len(defs))
			}
			if !traced && last.Metrics["setup_s"].Value <= 0 {
				t.Errorf("%s: setup_s %v", w.name, last.Metrics["setup_s"].Value)
			}
		}
	}
}
