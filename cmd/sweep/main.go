// Command sweep regenerates the schedulability experiments of Figure 4 of
// the paper (and the buffer-size ablation discussed in its Section VI):
// synthetic flow sets of increasing size are analysed with SB, XLWX and
// IBN at several buffer depths, reporting the percentage of fully
// schedulable sets.
//
// Usage:
//
//	sweep -mesh 4x4                       # Figure 4(a)
//	sweep -mesh 8x8                       # Figure 4(b)
//	sweep -mesh 4x4 -buffers              # buffer-size ablation
//	sweep -mesh 4x4 -variant eq7          # Eq.7-vs-Eq.8 ablation
//	sweep -mesh 4x4 -flows 40:430:30 -sets 100 -seed 1 -csv out.csv
//	sweep -mesh 4x4 -v -stats               # progress lines + engine telemetry
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"wormnoc/internal/core"
	"wormnoc/internal/exp"
	"wormnoc/internal/noc"
	"wormnoc/internal/workload"
)

func main() {
	var (
		mesh    = flag.String("mesh", "4x4", "mesh shape WxH")
		flows   = flag.String("flows", "", "flow counts: from:to:step or comma list (default per figure)")
		sets    = flag.Int("sets", 100, "flow sets per point")
		seed    = flag.Int64("seed", 1, "experiment seed")
		workers = flag.Int("workers", 0, "worker goroutines (0 = all CPUs)")
		csvPath = flag.String("csv", "", "also write CSV to this file")
		buffers = flag.Bool("buffers", false, "run the buffer-size ablation instead of Figure 4")
		avgcase = flag.Bool("avgcase", false, "run the average-case-vs-guarantee buffer study instead of Figure 4")
		chart   = flag.Bool("chart", false, "also render the sweep as an ASCII line chart (the paper's figure style)")
		variant = flag.String("variant", "", "extra IBN ablation column: eq7 or nofallback")
		verbose = flag.Bool("v", false, "print task progress to stderr")
		stats   = flag.Bool("stats", false, "print analysis-engine telemetry after the run")
		pmin    = flag.Int64("pmin", int64(workload.DefaultPeriodMin), "minimum period (cycles)")
		pmax    = flag.Int64("pmax", int64(workload.DefaultPeriodMax), "maximum period (cycles)")
		lmin    = flag.Int("lmin", workload.DefaultLenMin, "minimum packet length (flits)")
		lmax    = flag.Int("lmax", workload.DefaultLenMax, "maximum packet length (flits)")
	)
	flag.Parse()

	// Validate -variant up front so a typo fails with usage even when the
	// selected mode (e.g. -buffers) would never consult it.
	switch *variant {
	case "", "eq7", "nofallback", "sla":
	default:
		fmt.Fprintf(os.Stderr, "sweep: unknown -variant %q (want eq7, nofallback or sla)\n", *variant)
		flag.Usage()
		os.Exit(2)
	}

	w, h, err := parseMesh(*mesh)
	if err != nil {
		fatal(err)
	}
	synth := workload.SynthConfig{
		PeriodMin: noc.Cycles(*pmin), PeriodMax: noc.Cycles(*pmax),
		LenMin: *lmin, LenMax: *lmax,
	}
	counts, err := parseCounts(*flows, w, h)
	if err != nil {
		fatal(err)
	}
	runner := newRunner(*workers, *verbose)

	start := time.Now()
	if *avgcase {
		n := 50
		if len(counts) > 0 {
			n = counts[0]
		}
		res, err := exp.RunAvgCase(exp.AvgCaseConfig{
			Width: w, Height: h,
			NumFlows:  n,
			Sets:      *sets,
			BufDepths: exp.DefaultBufDepths(),
			Synth:     synth,
			Seed:      *seed,
			Runner:    runner,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Print(res.Table())
		printStats(*stats, res.Telemetry)
		fmt.Printf("elapsed: %v\n", time.Since(start).Round(time.Millisecond))
		return
	}
	var result *exp.SweepResult
	if *buffers {
		result, err = exp.RunBufferAblation(exp.BufferAblationConfig{
			Width: w, Height: h,
			FlowCounts:   counts,
			SetsPerPoint: *sets,
			Synth:        synth,
			Seed:         *seed,
			Runner:       runner,
		})
		if err == nil {
			if v := exp.CheckBufferMonotonicity(result); v != "" {
				fmt.Fprintf(os.Stderr, "warning: buffer monotonicity violated: %s\n", v)
			}
		}
	} else {
		analyses := exp.StandardAnalyses()
		switch *variant {
		case "":
		case "eq7":
			analyses = append(analyses, exp.AnalysisSpec{
				Name:    "IBN2eq7",
				Options: core.Options{Method: core.IBN, BufDepth: 2, Eq7: true},
			})
		case "nofallback":
			analyses = append(analyses, exp.AnalysisSpec{
				Name:    "IBN2nofb",
				Options: core.Options{Method: core.IBN, BufDepth: 2, NoUpstreamFallback: true},
			})
		case "sla":
			analyses = append(analyses,
				exp.AnalysisSpec{Name: "SLA2", Options: core.Options{Method: core.SLA, BufDepth: 2}},
				exp.AnalysisSpec{Name: "SLA100", Options: core.Options{Method: core.SLA, BufDepth: 100}},
			)
		}
		result, err = exp.RunSweep(exp.SweepConfig{
			Width: w, Height: h,
			FlowCounts:   counts,
			SetsPerPoint: *sets,
			Analyses:     analyses,
			Synth:        synth,
			Seed:         *seed,
			Runner:       runner,
		})
	}
	if err != nil {
		fatal(err)
	}
	fmt.Print(result.Table())
	if *chart {
		fmt.Println()
		fmt.Print(result.Chart(20))
	}
	printStats(*stats, result.Telemetry)
	fmt.Printf("elapsed: %v\n", time.Since(start).Round(time.Millisecond))
	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(result.CSV()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("CSV written to %s\n", *csvPath)
	}
}

func parseMesh(s string) (w, h int, err error) {
	parts := strings.Split(s, "x")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad -mesh %q, want WxH", s)
	}
	w, err = strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, fmt.Errorf("bad -mesh %q: %v", s, err)
	}
	h, err = strconv.Atoi(parts[1])
	if err != nil {
		return 0, 0, fmt.Errorf("bad -mesh %q: %v", s, err)
	}
	return w, h, nil
}

// parseCounts parses "from:to:step" or "a,b,c"; empty selects the
// figure's defaults for the mesh.
func parseCounts(s string, w, h int) ([]int, error) {
	if s == "" {
		if w == 8 && h == 8 {
			return exp.Fig4bConfig(0).FlowCounts, nil
		}
		return exp.Fig4aConfig(0).FlowCounts, nil
	}
	if strings.Contains(s, ":") {
		parts := strings.Split(s, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("bad -flows %q, want from:to:step", s)
		}
		var v [3]int
		for i, p := range parts {
			x, err := strconv.Atoi(p)
			if err != nil || x < 1 {
				return nil, fmt.Errorf("bad -flows %q", s)
			}
			v[i] = x
		}
		var out []int
		for n := v[0]; n <= v[1]; n += v[2] {
			out = append(out, n)
		}
		return out, nil
	}
	var out []int
	for _, p := range strings.Split(s, ",") {
		x, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || x < 1 {
			return nil, fmt.Errorf("bad -flows %q", s)
		}
		out = append(out, x)
	}
	return out, nil
}

// newRunner builds the shared task runner; with -v it reports progress
// on stderr as tasks finish.
func newRunner(workers int, verbose bool) *exp.Runner {
	r := &exp.Runner{Workers: workers}
	if verbose {
		r.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r%d/%d tasks", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	return r
}

func printStats(enabled bool, tel core.Telemetry) {
	if enabled {
		fmt.Print(tel.String())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
