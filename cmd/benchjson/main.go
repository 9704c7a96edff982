// Command benchjson converts `go test -bench -benchmem` output into a
// stable JSON document, so benchmark numbers can be tracked as build
// artifacts and diffed across commits (results/BENCH_sim.json,
// results/BENCH_analysis.json; see Makefile `bench`).
//
// Besides the raw per-benchmark records it derives before/after pairs
// (see pairPrefixes): any BenchmarkEngineReference/<scenario> with a
// matching BenchmarkEngine/<scenario> becomes a pair with the speedup
// of the event-driven engine over the retained reference engine, and
// any BenchmarkWhatIfScratch/<scenario> pairs with
// BenchmarkWhatIfIncremental/<scenario> for the speedup of the
// delta-aware incremental analysis engine over from-scratch re-analysis,
// and any BenchmarkRunManySequential/<scenario> pairs with
// BenchmarkRunMany/<scenario> for the scenario throughput of the batch
// runner over one-at-a-time engine runs, and any
// BenchmarkSearchProbeFull/<scenario> pairs with
// BenchmarkSearchProbeScoped/<scenario> for the phasing search's
// target-scoped probes over full-horizon ones, and any
// BenchmarkExhaustiveRaw/<scenario> pairs with
// BenchmarkExhaustiveReduced/<scenario> for the explicit-state
// backend's symmetry/cluster reductions over the raw grid, and any
// BenchmarkExhaustiveFullHorizon/<scenario> pairs with
// BenchmarkExhaustiveBusyPeriod/<scenario> for the proof pass's
// busy-period runs over full-horizon ones — the numbers those rewrites
// are held to.
//
// With -baseline, the freshly parsed document is additionally gated
// against a previously committed BENCH_*.json: any tracked pair whose
// speedup fell more than -max-regress percent below the baseline's
// (or that vanished from the run entirely) fails the gate with exit
// code 3, so CI distinguishes "benchmarks regressed" from "invocation
// broke". The gate compares the speedup RATIO, not raw ns/op, so it is
// robust to runner hardware changing between commits.
//
// Usage:
//
//	go test -run=NONE -bench=. -benchmem ./... | benchjson -out bench.json
//	benchjson -in bench.txt                    # JSON to stdout
//	benchjson -in bench.txt -out new.json -baseline results/BENCH_exhaustive.json -max-regress 20%
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Schema identifies the output format; bump when fields change meaning.
const Schema = "wormnoc-bench/v1"

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Iterations is b.N for the reported timing.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the reported wall time per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are present when -benchmem was set.
	BytesPerOp  *int64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64 `json:"allocs_per_op,omitempty"`
	// Metrics holds custom b.ReportMetric units (e.g. "cycles/s").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Pair is a derived before/after comparison on one scenario: the
// reference vs event-driven simulation engine, or the from-scratch vs
// incremental analysis engine (see pairPrefixes).
type Pair struct {
	Scenario   string  `json:"scenario"`
	BeforeNs   float64 `json:"before_ns_per_op"`
	AfterNs    float64 `json:"after_ns_per_op"`
	Speedup    float64 `json:"speedup"`
	BeforeName string  `json:"before"`
	AfterName  string  `json:"after"`
}

// Doc is the emitted document.
type Doc struct {
	Schema     string      `json:"schema"`
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	Benchmarks []Benchmark `json:"benchmarks"`
	Pairs      []Pair      `json:"pairs,omitempty"`
}

// benchLine matches `BenchmarkName[-P]  N  1234 ns/op [extra unit]...`.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

func main() {
	var (
		in         = flag.String("in", "-", "benchmark text to parse (- = stdin)")
		out        = flag.String("out", "-", "output JSON file (- = stdout)")
		baseline   = flag.String("baseline", "", "committed BENCH_*.json to gate pair speedups against")
		maxRegress = flag.String("max-regress", "10%", "max tolerated pair-speedup regression vs -baseline (e.g. 20%)")
	)
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	doc, err := Parse(r)
	if err != nil {
		fatal(err)
	}
	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fatal(err)
	}
	if *baseline != "" {
		tol, err := ParseRegress(*maxRegress)
		if err != nil {
			fatal(err)
		}
		f, err := os.Open(*baseline)
		if err != nil {
			fatal(err)
		}
		var base Doc
		err = json.NewDecoder(f).Decode(&base)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("parsing baseline %s: %w", *baseline, err))
		}
		regressions := Gate(&base, doc, tol)
		for _, msg := range regressions {
			fmt.Fprintln(os.Stderr, "benchjson: REGRESSION:", msg)
		}
		if len(regressions) > 0 {
			os.Exit(3)
		}
		fmt.Fprintf(os.Stderr, "benchjson: %d pair(s) within %.0f%% of baseline %s\n",
			len(base.Pairs), tol*100, *baseline)
	}
}

// ParseRegress parses a -max-regress value: a non-negative percentage
// with optional trailing "%".
func ParseRegress(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad -max-regress %q: want a non-negative percentage like 20%%", s)
	}
	return v / 100, nil
}

// Gate compares the freshly measured document against a committed
// baseline and reports one message per regressed pair: a tracked
// before/after speedup that fell below baseline·(1−tol), or a baseline
// pair the new run no longer produces at all (a renamed or deleted
// benchmark would otherwise silently retire its gate). New pairs absent
// from the baseline pass — they gate from the next baseline refresh on.
func Gate(base, doc *Doc, tol float64) []string {
	byBefore := map[string]Pair{}
	for _, p := range doc.Pairs {
		byBefore[p.BeforeName] = p
	}
	var out []string
	for _, old := range base.Pairs {
		p, ok := byBefore[old.BeforeName]
		if !ok {
			out = append(out, fmt.Sprintf("pair %s vs %s: present in baseline, missing from this run",
				old.BeforeName, old.AfterName))
			continue
		}
		floor := old.Speedup * (1 - tol)
		if p.Speedup < floor {
			out = append(out, fmt.Sprintf("pair %s: speedup %.2fx fell below %.2fx (baseline %.2fx − %.0f%%)",
				p.BeforeName, p.Speedup, floor, old.Speedup, tol*100))
		}
	}
	return out
}

// Parse reads `go test -bench` output and builds the document. Lines
// that are not benchmark results (test chatter, pass/fail footers) are
// ignored; the same benchmark appearing twice (e.g. -count=2) keeps the
// faster run, the convention benchstat calls "min of counts".
//
// Input with no benchmark lines at all is an error, not an empty
// document: it means the -bench regexp matched nothing or the test
// binary failed before benchmarks ran, and an empty BENCH_*.json
// committed as a baseline would silently disable every tracked pair.
// Likewise, a tracked pair family (pairPrefixes) where one side matched
// benchmarks and the other matched none is an error — a renamed
// benchmark or a half-matching regexp, never a legitimate run. Families
// absent on both sides stay legal so split runs (sim-only,
// analysis-only) keep working.
func Parse(r io.Reader) (*Doc, error) {
	doc := &Doc{
		Schema:    Schema,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	byName := map[string]*Benchmark{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		b, err := parseResult(m[1], m[2], m[3])
		if err != nil {
			return nil, fmt.Errorf("benchjson: line %q: %w", sc.Text(), err)
		}
		if prev, ok := byName[b.Name]; !ok || b.NsPerOp < prev.NsPerOp {
			byName[b.Name] = b
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(byName) == 0 {
		return nil, fmt.Errorf("no benchmark results in input (did the -bench regexp match anything, and did the test binary build?)")
	}
	for _, b := range byName {
		doc.Benchmarks = append(doc.Benchmarks, *b)
	}
	sort.Slice(doc.Benchmarks, func(i, j int) bool {
		return doc.Benchmarks[i].Name < doc.Benchmarks[j].Name
	})
	pairs, err := derivePairs(byName)
	if err != nil {
		return nil, err
	}
	doc.Pairs = pairs
	return doc, nil
}

func parseResult(name, iters, rest string) (*Benchmark, error) {
	// Strip the -GOMAXPROCS suffix so names are stable across machines.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	n, err := strconv.ParseInt(iters, 10, 64)
	if err != nil {
		return nil, err
	}
	b := &Benchmark{Name: name, Iterations: n}
	fields := strings.Fields(rest)
	for i := 0; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q for unit %q", val, unit)
		}
		switch unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			iv := int64(v)
			b.BytesPerOp = &iv
		case "allocs/op":
			iv := int64(v)
			b.AllocsPerOp = &iv
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, nil
}

// pairPrefixes lists the tracked before/after benchmark families: a
// result named <before><scenario> pairs with <after><scenario>.
var pairPrefixes = []struct{ before, after string }{
	{"BenchmarkEngineReference/", "BenchmarkEngine/"},
	{"BenchmarkWhatIfScratch/", "BenchmarkWhatIfIncremental/"},
	{"BenchmarkRunManySequential/", "BenchmarkRunMany/"},
	{"BenchmarkSearchProbeFull/", "BenchmarkSearchProbeScoped/"},
	// The exhaustive backend's raw-grid enumeration vs the symmetry-
	// quotiented, cluster-decomposed one (results/BENCH_exhaustive.json,
	// Makefile `bench-exhaustive`). The states/op metric on each record
	// carries the state-count reduction behind the wall-clock speedup.
	{"BenchmarkExhaustiveRaw/", "BenchmarkExhaustiveReduced/"},
	// The proof pass's cluster representatives run to the horizon vs to
	// their first idle instant (sim.Engine.RunBusyPeriod).
	{"BenchmarkExhaustiveFullHorizon/", "BenchmarkExhaustiveBusyPeriod/"},
}

// derivePairs matches each pairPrefixes family's before/after runs by
// scenario and reports the speedups, sorted by before name then
// scenario. A family with results on exactly one side is an error (see
// Parse); a family absent from the input entirely is skipped.
func derivePairs(byName map[string]*Benchmark) ([]Pair, error) {
	var pairs []Pair
	for _, pp := range pairPrefixes {
		nBefore, nAfter := 0, 0
		for name := range byName {
			if strings.HasPrefix(name, pp.before) {
				nBefore++
			}
			if strings.HasPrefix(name, pp.after) {
				nAfter++
			}
		}
		if (nBefore == 0) != (nAfter == 0) {
			return nil, fmt.Errorf("pair family %s* vs %s*: %d before and %d after results — one side of a tracked pair is missing (renamed benchmark, or -bench regexp matching only half the family?)",
				pp.before, pp.after, nBefore, nAfter)
		}
		for name, ref := range byName {
			scen, ok := strings.CutPrefix(name, pp.before)
			if !ok {
				continue
			}
			ev, ok := byName[pp.after+scen]
			if !ok || ev.NsPerOp <= 0 {
				continue
			}
			pairs = append(pairs, Pair{
				Scenario:   scen,
				BeforeNs:   ref.NsPerOp,
				AfterNs:    ev.NsPerOp,
				Speedup:    ref.NsPerOp / ev.NsPerOp,
				BeforeName: name,
				AfterName:  pp.after + scen,
			})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].BeforeName != pairs[j].BeforeName {
			return pairs[i].BeforeName < pairs[j].BeforeName
		}
		return pairs[i].Scenario < pairs[j].Scenario
	})
	return pairs, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
