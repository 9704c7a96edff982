package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: wormnoc/internal/sim
BenchmarkEngine/low-8      	      75	  16852002 ns/op	     138 B/op	       2 allocs/op
BenchmarkEngine/moderate   	     148	   8169720 ns/op	      53 B/op	       1 allocs/op
BenchmarkEngineReference/low-8      	      16	  62785976 ns/op	   38296 B/op	     576 allocs/op
BenchmarkEngineReference/moderate   	      38	  33740869 ns/op	   34448 B/op	     537 allocs/op
BenchmarkSimulator/saturated        	      96	  11072287 ns/op	   9031581 cycles/s	    1860 B/op	       5 allocs/op
BenchmarkWhatIfScratch/period/n=400-8         	      28	  40913363 ns/op	 6434461 B/op	   68902 allocs/op
BenchmarkWhatIfIncremental/period/n=400-8     	     988	   1194335 ns/op	  830416 B/op	    3695 allocs/op
BenchmarkRunManySequential/campaign64-8       	      10	 104000000 ns/op	     512 B/op	       8 allocs/op
BenchmarkRunMany/campaign64-8                 	      40	  26000000 ns/op	    1024 B/op	      24 allocs/op
BenchmarkExhaustiveRaw/ref4-8                 	       1	1257000000 ns/op	      8640 states/op
BenchmarkExhaustiveReduced/ref4-8             	     600	   1900000 ns/op	        37 states/op
PASS
ok  	wormnoc	15.244s
`

func TestParse(t *testing.T) {
	doc, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Schema != Schema {
		t.Errorf("schema = %q", doc.Schema)
	}
	if len(doc.Benchmarks) != 11 {
		t.Fatalf("parsed %d benchmarks, want 11: %+v", len(doc.Benchmarks), doc.Benchmarks)
	}
	byName := map[string]Benchmark{}
	for _, b := range doc.Benchmarks {
		byName[b.Name] = b
	}
	low, ok := byName["BenchmarkEngine/low"]
	if !ok {
		t.Fatal("GOMAXPROCS suffix not stripped from BenchmarkEngine/low-8")
	}
	if low.NsPerOp != 16852002 || low.Iterations != 75 {
		t.Errorf("BenchmarkEngine/low parsed as %+v", low)
	}
	if low.AllocsPerOp == nil || *low.AllocsPerOp != 2 || low.BytesPerOp == nil || *low.BytesPerOp != 138 {
		t.Errorf("benchmem fields wrong: %+v", low)
	}
	sat := byName["BenchmarkSimulator/saturated"]
	if got := sat.Metrics["cycles/s"]; got != 9031581 {
		t.Errorf("custom metric cycles/s = %v", got)
	}

	if len(doc.Pairs) != 5 {
		t.Fatalf("derived %d pairs, want 5: %+v", len(doc.Pairs), doc.Pairs)
	}
	if doc.Pairs[0].Scenario != "low" || doc.Pairs[1].Scenario != "moderate" {
		t.Errorf("pair order: %+v", doc.Pairs)
	}
	if s := doc.Pairs[0].Speedup; s < 3.7 || s > 3.8 {
		t.Errorf("low speedup = %.2f, want ~3.73", s)
	}
	byBefore := map[string]Pair{}
	for _, p := range doc.Pairs {
		byBefore[p.BeforeName] = p
	}
	whatif, ok := byBefore["BenchmarkWhatIfScratch/period/n=400"]
	if !ok || whatif.AfterName != "BenchmarkWhatIfIncremental/period/n=400" {
		t.Errorf("what-if pair not derived: %+v", doc.Pairs)
	}
	if s := whatif.Speedup; s < 34.2 || s > 34.3 {
		t.Errorf("what-if speedup = %.2f, want ~34.26", s)
	}
	runmany, ok := byBefore["BenchmarkRunManySequential/campaign64"]
	if !ok || runmany.AfterName != "BenchmarkRunMany/campaign64" {
		t.Errorf("RunMany pair not derived: %+v", doc.Pairs)
	}
	if s := runmany.Speedup; s < 3.9 || s > 4.1 {
		t.Errorf("RunMany speedup = %.2f, want ~4.0", s)
	}
	exh, ok := byBefore["BenchmarkExhaustiveRaw/ref4"]
	if !ok || exh.AfterName != "BenchmarkExhaustiveReduced/ref4" {
		t.Errorf("exhaustive reduction pair not derived: %+v", doc.Pairs)
	}
	if s := exh.Speedup; s < 660 || s > 663 {
		t.Errorf("exhaustive speedup = %.2f, want ~661.6", s)
	}
}

// TestParseRejectsEmptyInput pins the fix for silently emitting empty
// benchmark documents: input with no benchmark lines (failed build,
// wrong -bench regexp) must error instead of producing a baseline that
// disables every tracked pair.
func TestParseRejectsEmptyInput(t *testing.T) {
	for _, in := range []string{"", "PASS\nok  \twormnoc\t0.1s\n"} {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("Parse(%q) accepted input with zero benchmarks", in)
		}
	}
}

// TestParseRejectsHalfPair: a tracked pair family with results on
// exactly one side means a renamed benchmark or a regexp matching only
// half the family — an error, while families absent from both sides
// (split sim/analysis bench runs) stay legal.
func TestParseRejectsHalfPair(t *testing.T) {
	half := "BenchmarkEngine/low 10 100 ns/op\n"
	if _, err := Parse(strings.NewReader(half)); err == nil {
		t.Error("Parse accepted a pair family with only the after side present")
	}
	half = "BenchmarkRunManySequential/campaign64 10 100 ns/op\n"
	if _, err := Parse(strings.NewReader(half)); err == nil {
		t.Error("Parse accepted a pair family with only the before side present")
	}
	// Both sides absent: fine — e.g. an analysis-only bench run.
	ok := "BenchmarkWhatIfScratch/x 10 100 ns/op\nBenchmarkWhatIfIncremental/x 10 50 ns/op\n"
	if _, err := Parse(strings.NewReader(ok)); err != nil {
		t.Errorf("Parse rejected a run with one complete family and others absent: %v", err)
	}
}

// TestGate exercises the -baseline regression gate: speedups within
// tolerance pass, speedups below baseline·(1−tol) fail, and a tracked
// pair that vanished from the run fails so a renamed benchmark cannot
// silently retire its gate. New pairs absent from the baseline pass.
func TestGate(t *testing.T) {
	pair := func(before, after string, speedup float64) Pair {
		return Pair{Scenario: "x", BeforeName: before + "/x", AfterName: after + "/x", Speedup: speedup}
	}
	base := &Doc{Pairs: []Pair{
		pair("BenchmarkExhaustiveRaw", "BenchmarkExhaustiveReduced", 600),
		pair("BenchmarkEngineReference", "BenchmarkEngine", 4),
	}}

	// Within tolerance: 10% below a 600x baseline clears a 20% gate.
	doc := &Doc{Pairs: []Pair{
		pair("BenchmarkExhaustiveRaw", "BenchmarkExhaustiveReduced", 540),
		pair("BenchmarkEngineReference", "BenchmarkEngine", 4.2),
		pair("BenchmarkRunManySequential", "BenchmarkRunMany", 1), // new pair, no baseline
	}}
	if msgs := Gate(base, doc, 0.20); len(msgs) != 0 {
		t.Errorf("in-tolerance run failed the gate: %v", msgs)
	}

	// A collapsed speedup and a vanished pair are both regressions.
	doc = &Doc{Pairs: []Pair{
		pair("BenchmarkExhaustiveRaw", "BenchmarkExhaustiveReduced", 300),
	}}
	msgs := Gate(base, doc, 0.20)
	if len(msgs) != 2 {
		t.Fatalf("gate reported %d regressions, want 2 (collapse + missing pair): %v", len(msgs), msgs)
	}
	if !strings.Contains(msgs[0], "300.00x") || !strings.Contains(msgs[1], "missing") {
		t.Errorf("regression messages: %v", msgs)
	}

	// Zero tolerance: any dip fails.
	doc = &Doc{Pairs: []Pair{
		pair("BenchmarkExhaustiveRaw", "BenchmarkExhaustiveReduced", 599.9),
		pair("BenchmarkEngineReference", "BenchmarkEngine", 4),
	}}
	if msgs := Gate(base, doc, 0); len(msgs) != 1 {
		t.Errorf("zero-tolerance gate reported %v", msgs)
	}
}

func TestParseRegress(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want float64
		ok   bool
	}{
		{"10%", 0.10, true}, {"20", 0.20, true}, {"0%", 0, true},
		{"-5%", 0, false}, {"ten", 0, false}, {"", 0, false},
	} {
		got, err := ParseRegress(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseRegress(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

func TestParseKeepsFastestDuplicate(t *testing.T) {
	in := "BenchmarkX 10 200 ns/op\nBenchmarkX 20 100 ns/op\n"
	doc, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 1 || doc.Benchmarks[0].NsPerOp != 100 {
		t.Fatalf("duplicate handling: %+v", doc.Benchmarks)
	}
}
