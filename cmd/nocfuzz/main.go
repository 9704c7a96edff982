// Command nocfuzz drives the differential verification oracle from the
// command line: it generates random scenarios, cross-checks every
// registered analysis against the simulator's adversarial phasing
// search, shrinks any invariant violation to a minimal counterexample
// and persists it as a replayable JSON artifact.
//
// run ends with a per-analysis table: how many attacked flow bounds each
// analysis lost to the simulator and by how much. With -gen mpb it
// draws MPB-prone scenarios (oracle.MPBGen: long packets, tight
// periods), the hunt that catches SB and SLA being optimistic while
// XLWX and IBN survive — the paper's closing claim made executable.
//
// Usage:
//
//	nocfuzz run -n 400 -seed 1 -out counterexamples   # fuzz 400 scenarios
//	nocfuzz run -gen mpb -n 120 -duration 80000 -restarts 3 -keep-going
//	nocfuzz replay -in counterexamples/ce-000012.json # re-check one artifact
//	nocfuzz corpus -n 16 -out internal/oracle/testdata/fuzz/FuzzOracleScenario
//
// Exit codes: 0 clean, 1 usage or I/O error, 2 coverage incomplete
// under exhaust -require-complete, 3 a violation was found (run) or
// still reproduces (replay) — distinct so CI can tell "broken
// invocation" from "missing proof" from "broken invariant".
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"wormnoc/internal/core"
	"wormnoc/internal/exhaustive"
	"wormnoc/internal/noc"
	"wormnoc/internal/oracle"
	"wormnoc/internal/prof"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "run":
		cmdRun(os.Args[2:])
	case "exhaust":
		cmdExhaust(os.Args[2:])
	case "replay":
		cmdReplay(os.Args[2:])
	case "corpus":
		cmdCorpus(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "nocfuzz: unknown command %q\n\n", os.Args[1])
		usage()
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  nocfuzz run     [-n N] [-seed S] [-out DIR] [-gen default|mpb]
                  [-duration D] [-restarts R] [-probes P] [-refine K]
                  [-workers W] [-scenario-workers SW] [-keep-going] [-v]
                  [-cpuprofile FILE] [-memprofile FILE]
  nocfuzz exhaust [-n N] [-seed S] [-out DIR] [-mesh M] [-flows F]
                  [-jitter J] [-workers W] [-budget STATES] [-timeout DUR]
                  [-duration D] [-reduce all|none|symmetry|clusters]
                  [-period-min P] [-period-max P] [-require-complete]
                  [-keep-going] [-v]
  nocfuzz replay  -in FILE [-v]
  nocfuzz corpus  [-n N] [-seed S] -out DIR

run     generates N scenarios from S, checks every invariant, shrinks
        violations and writes one artifact per violating scenario to DIR,
        then tabulates, per analysis, the attacked bounds the simulator
        exceeded. -gen mpb draws MPB-prone scenarios (long packets,
        tight periods, no jitter); run it with -duration 80000 to catch
        SB and SLA being optimistic.
exhaust generates N deliberately tiny scenarios (mesh dims <= M, <= F
        flows, short periods) and model-checks each with the explicit-
        state backend: the full release-phasing grid is enumerated and
        the chain search <= exhaustive <= IBN <= XLWX is proved, with
        the search-vs-exhaustive gap written to DIR/gap-report.json.
        The budget is compared against the REDUCED state space (shift-
        symmetry quotient + contention-cluster decomposition, default
        -reduce=all); -reduce=none restores the raw grid enumeration
        for differential validation. Scenarios whose reduced space
        exceeds the state budget are reported as skipped; every
        enumerated scenario is a complete proof, and -timeout stops the
        matrix between scenarios. -period-min/-period-max widen the
        generated period range (longer periods multiply the raw grid —
        the configs only reduction makes reachable). -require-complete
        exits with code 2 unless every scenario produced a complete
        proof (no skips, no timeout), which is what CI asserts.
        Violations shrink to artifacts exactly as with run.
replay  re-runs the check an artifact records; exit 3 if it reproduces.
corpus  emits go-fuzz seed files (one int64 seed each) for
        internal/oracle's FuzzOracleScenario target.
`)
	os.Exit(1)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "nocfuzz: %v\n", err)
	os.Exit(1)
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var (
		n          = fs.Int("n", 100, "number of scenarios to check")
		seed       = fs.Int64("seed", 1, "root seed; scenario i uses a seed derived from it")
		out        = fs.String("out", "counterexamples", "directory for counterexample artifacts")
		genName    = fs.String("gen", "default", "scenario generator: default or mpb (MPB-prone: long packets, tight periods)")
		duration   = fs.Int64("duration", 12_000, "simulation horizon per phasing probe, cycles")
		restarts   = fs.Int("restarts", 2, "random restarts per phasing search")
		probes     = fs.Int("probes", 4, "probes per flow and restart")
		refine     = fs.Int("refine", 1, "greedy refinement sweeps per restart")
		workers    = fs.Int("workers", 0, "parallel phasing searches within one scenario (0 = auto)")
		scWorkers  = fs.Int("scenario-workers", 0, "scenarios checked in parallel (0 = all CPUs); per-scenario searches then run serially")
		keepGoing  = fs.Bool("keep-going", false, "check all N scenarios even after violations")
		verbose    = fs.Bool("v", false, "log every scenario, not just violating ones")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	fs.Parse(args)
	var gen oracle.GenConfig
	switch *genName {
	case "default":
	case "mpb":
		gen = oracle.MPBGen()
	default:
		fmt.Fprintf(os.Stderr, "nocfuzz: unknown -gen %q (want default or mpb)\n\n", *genName)
		usage()
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	// errStop cancels the campaign after the first violating scenario
	// (default mode); it is not a failure of the campaign machinery.
	errStop := errors.New("stop after violation")
	var mu sync.Mutex // serialises shrinking, artifact writes, the tally and output
	tally := newHuntTally()
	stats, err := oracle.Campaign(oracle.CampaignConfig{
		Scenarios: *n,
		Seed:      *seed,
		Gen:       gen,
		Check: oracle.CheckConfig{
			Duration:      noc.Cycles(*duration),
			Restarts:      *restarts,
			ProbesPerFlow: *probes,
			RefineSteps:   *refine,
			Workers:       *workers,
		},
		Workers: *scWorkers,
	}, func(i int, sc *oracle.Scenario, ccfg oracle.CheckConfig, rep *oracle.Report) error {
		mu.Lock()
		defer mu.Unlock()
		tally.add(rep)
		if *verbose {
			fmt.Printf("[%d/%d] %s: %d violations, %d findings, %d sim runs\n",
				i+1, *n, sc, len(rep.Violations), len(rep.Findings), rep.SimRuns)
		}
		if len(rep.Violations) == 0 {
			return nil
		}
		v := rep.Violations[0]
		fmt.Printf("VIOLATION at scenario %d (%s):\n  %s\n", i, sc, v.String())

		fmt.Printf("  shrinking...")
		shrunk, err := oracle.Shrink(sc, v, ccfg, 0)
		if err != nil {
			fatal(err)
		}
		fmt.Printf(" %d reductions in %d attempts -> %s\n",
			shrunk.Reductions, shrunk.Attempts, shrunk.Scenario)

		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
		path := filepath.Join(*out, fmt.Sprintf("ce-%06d.json", i))
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		art := oracle.NewArtifact(sc, ccfg, *oracle.FindViolation(shrunk.Report, v), shrunk)
		if err := art.WriteJSON(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("  counterexample written to %s\n", path)
		if !*keepGoing {
			return errStop
		}
		return nil
	})
	if err != nil && !errors.Is(err, errStop) {
		fatal(err)
	}
	fmt.Printf("%d scenarios checked, %d sim runs, %d violations\n", stats.Checked, stats.SimRuns, stats.Violations)
	fmt.Print(tally.table())
	if stats.Violations > 0 {
		stopProf()
		os.Exit(3)
	}
}

// huntMethods are the rows of run's summary table: the pre-MPB
// analyses first, then the two the paper claims are safe.
var huntMethods = []core.Method{core.SB, core.SLA, core.XLWX, core.IBN}

// huntTally aggregates, per analysis, the attacked flow bounds the
// phasing search exceeded: KnownOptimism findings for SB/SLA, "sim<="
// violations for XLWX/IBN.
type huntTally struct {
	flows    int
	exceeded map[core.Method]int
	excess   map[core.Method]noc.Cycles
}

func newHuntTally() *huntTally {
	return &huntTally{exceeded: map[core.Method]int{}, excess: map[core.Method]noc.Cycles{}}
}

func (t *huntTally) add(rep *oracle.Report) {
	t.flows += rep.FlowsAttacked
	count := func(v oracle.Violation) {
		if v.Invariant != "sim<="+v.Method.String() {
			return
		}
		t.exceeded[v.Method]++
		if ex := v.Observed - v.Bound; ex > t.excess[v.Method] {
			t.excess[v.Method] = ex
		}
	}
	for _, v := range rep.Findings {
		count(v)
	}
	for _, v := range rep.Violations {
		count(v)
	}
}

func (t *huntTally) table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "counter-example hunt: %d flow bounds attacked\n", t.flows)
	fmt.Fprintf(&b, "%8s %12s %14s %12s\n", "analysis", "violations", "worst excess", "verdict")
	for _, m := range huntMethods {
		verdict := "SAFE so far"
		if t.exceeded[m] > 0 {
			verdict = "OPTIMISTIC"
		}
		fmt.Fprintf(&b, "%8s %12d %14d %12s\n", m, t.exceeded[m], t.excess[m], verdict)
	}
	return b.String()
}

// gapRow is one scenario-flow line of the exhaust gap report.
// ViaReduction separates proofs the reductions made affordable from
// proofs over the raw grid, so the report shows which part of the
// matrix only exists because of the symmetry/cluster reductions.
type gapRow struct {
	Scenario     int   `json:"scenario"`
	Seed         int64 `json:"seed"`
	Flow         int   `json:"flow"`
	Search       int64 `json:"search"`
	Exhaustive   int64 `json:"exhaustive"`
	Gap          int64 `json:"gap"`
	Proven       bool  `json:"proven"`
	ViaReduction bool  `json:"via_reduction,omitempty"`
	GridSize     int64 `json:"grid_size"`
	ReducedGrid  int64 `json:"reduced_grid_size"`
	States       int64 `json:"states"`
}

// gapReport is the DIR/gap-report.json schema: campaign-level coverage
// plus one row per (enumerated scenario, schedulable flow).
type gapReport struct {
	Scenarios    int      `json:"scenarios"`
	Reduction    string   `json:"reduction"`
	Exhausted    int      `json:"exhausted"`
	Complete     int      `json:"complete"`
	ViaReduction int      `json:"via_reduction"`
	Skipped      int      `json:"skipped"`
	SimRuns      int      `json:"sim_runs"`
	StatesSaved  int64    `json:"states_saved"`
	MaxGap       int64    `json:"max_gap"`
	Rows         []gapRow `json:"rows"`
}

func cmdExhaust(args []string) {
	fs := flag.NewFlagSet("exhaust", flag.ExitOnError)
	var (
		n         = fs.Int("n", 50, "number of tiny scenarios to model-check")
		seed      = fs.Int64("seed", 1, "root seed; scenario i uses a seed derived from it")
		out       = fs.String("out", "exhaust-out", "directory for gap-report.json and counterexample artifacts")
		mesh      = fs.Int("mesh", 2, "max mesh dimension of generated scenarios (exhaustive backend accepts <= 4 nodes)")
		flows     = fs.Int("flows", 3, "max flows per scenario (exhaustive backend accepts <= 4)")
		jitter    = fs.Int64("jitter", 0, "max release jitter in cycles (0 = jitter-free scenarios, the certified class)")
		workers   = fs.Int("workers", 0, "scenarios checked in parallel (0 = all CPUs)")
		budget    = fs.Int64("budget", 1<<16, "state budget: max phasings enumerated per scenario; larger grids are skipped")
		timeout   = fs.Duration("timeout", 0, "wall-clock cap for the whole matrix (0 = none); a timed-out matrix reports partial coverage")
		duration  = fs.Int64("duration", 2_000, "simulation horizon of the randomised (jittered) attack, cycles")
		reduce    = fs.String("reduce", "all", "state-space reductions: all, none, symmetry or clusters (budget gates on the reduced size)")
		periodMin = fs.Int64("period-min", 6, "min generated flow period, cycles")
		periodMax = fs.Int64("period-max", 18, "max generated flow period, cycles (the raw grid is the product of the periods)")
		require   = fs.Bool("require-complete", false, "exit 2 unless every scenario yields a complete proof (no skips)")
		keepGoing = fs.Bool("keep-going", false, "check all N scenarios even after violations")
		verbose   = fs.Bool("v", false, "log every scenario, not just violating ones")
	)
	fs.Parse(args)

	mode, err := exhaustive.ParseReduction(*reduce)
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	gen := oracle.GenConfig{
		MaxDim:          *mesh,
		MaxFlows:        *flows,
		MaxBuf:          4,
		MaxLinkLatency:  1,
		MaxRouteLatency: -1,
		// Short periods keep the phasing grid (the product of the
		// periods) within the state budget; the nightly sweep raises
		// -period-max to sizes only the reduced space can cover.
		PeriodMin: noc.Cycles(*periodMin), PeriodMax: noc.Cycles(*periodMax),
		LenMin: 2, LenMax: 6,
		JitterProb: -1,
		MaxJitter:  noc.Cycles(*jitter),
	}
	if *jitter > 0 {
		// Jittered scenarios still get checked — the analytic bounds
		// absorb the jitter terms, so the chain stays sound — but the
		// certified class remains the jitter-free phasings.
		gen.JitterProb = 0.25
	}

	errStop := errors.New("stop after violation")
	report := gapReport{Scenarios: *n, Reduction: mode.String()}
	var mu sync.Mutex
	stats, err := oracle.Campaign(oracle.CampaignConfig{
		Scenarios: *n,
		Seed:      *seed,
		Gen:       gen,
		Check: oracle.CheckConfig{
			Duration:         noc.Cycles(*duration),
			ExhaustiveStates: *budget,
			ExhaustiveReduce: mode,
		},
		Workers: *workers,
		Context: ctx,
	}, func(i int, sc *oracle.Scenario, ccfg oracle.CheckConfig, rep *oracle.Report) error {
		mu.Lock()
		defer mu.Unlock()
		if rep.Exhaustive == nil {
			report.Skipped++
			if *verbose {
				fmt.Printf("[%d/%d] %s: exhaustive skipped (%v)\n", i+1, *n, sc, rep.Notes)
			}
		} else {
			ex := rep.Exhaustive
			report.Complete++
			if ex.StatesSaved > 0 {
				report.ViaReduction++
			}
			report.StatesSaved += ex.StatesSaved
			for _, g := range ex.Gaps {
				report.Rows = append(report.Rows, gapRow{
					Scenario:     i,
					Seed:         sc.Seed,
					Flow:         g.Flow,
					Search:       int64(g.Search),
					Exhaustive:   int64(g.Exhaustive),
					Gap:          int64(g.Gap),
					Proven:       g.Proven,
					ViaReduction: g.ViaReduction,
					GridSize:     ex.GridSize,
					ReducedGrid:  ex.ReducedGridSize,
					States:       ex.States,
				})
				if int64(g.Gap) > report.MaxGap {
					report.MaxGap = int64(g.Gap)
				}
			}
			if *verbose {
				fmt.Printf("[%d/%d] %s: %d/%d phasings (raw %d), %d gap rows\n",
					i+1, *n, sc, ex.States, ex.ReducedGridSize, ex.GridSize, len(ex.Gaps))
			}
		}
		if len(rep.Violations) == 0 {
			return nil
		}
		v := rep.Violations[0]
		fmt.Printf("VIOLATION at scenario %d (%s):\n  %s\n", i, sc, v.String())
		fmt.Printf("  shrinking...")
		shrunk, err := oracle.Shrink(sc, v, ccfg, 0)
		if err != nil {
			fatal(err)
		}
		fmt.Printf(" %d reductions in %d attempts -> %s\n",
			shrunk.Reductions, shrunk.Attempts, shrunk.Scenario)
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
		path := filepath.Join(*out, fmt.Sprintf("ce-%06d.json", i))
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		art := oracle.NewArtifact(sc, ccfg, *oracle.FindViolation(shrunk.Report, v), shrunk)
		if err := art.WriteJSON(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("  counterexample written to %s\n", path)
		if !*keepGoing {
			return errStop
		}
		return nil
	})
	timedOut := ctx.Err() != nil
	if err != nil && !errors.Is(err, errStop) && !timedOut {
		fatal(err)
	}

	report.Exhausted = stats.Exhausted
	report.SimRuns = stats.SimRuns
	// Deterministic report regardless of completion order.
	sort.Slice(report.Rows, func(a, b int) bool {
		if report.Rows[a].Scenario != report.Rows[b].Scenario {
			return report.Rows[a].Scenario < report.Rows[b].Scenario
		}
		return report.Rows[a].Flow < report.Rows[b].Flow
	})
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	path := filepath.Join(*out, "gap-report.json")
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&report); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}

	fmt.Printf("%d/%d scenarios checked: %d enumerated (%d complete proofs, %d via reduction), %d skipped, %d states saved, max search gap %d cycles\n",
		stats.Checked, *n, stats.Exhausted, report.Complete, report.ViaReduction,
		report.Skipped, report.StatesSaved, report.MaxGap)
	fmt.Printf("gap report written to %s\n", path)
	if timedOut {
		fmt.Printf("TIMED OUT after %s: coverage above is partial, not a proof of the full matrix\n", *timeout)
	}
	if stats.Violations > 0 {
		os.Exit(3)
	}
	if *require && (report.Skipped > 0 || timedOut || stats.Checked < *n) {
		fmt.Printf("REQUIRE-COMPLETE FAILED: %d skipped, %d/%d checked\n",
			report.Skipped, stats.Checked, *n)
		os.Exit(2)
	}
}

func cmdReplay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	var (
		in      = fs.String("in", "", "counterexample artifact to replay (required)")
		verbose = fs.Bool("v", false, "print the full violation list of the replayed check")
	)
	fs.Parse(args)
	if *in == "" {
		fs.Usage()
		os.Exit(1)
	}
	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	art, err := oracle.ReadArtifact(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	rep, reproduced, err := art.Replay()
	if err != nil {
		fatal(err)
	}
	if *verbose {
		for _, v := range rep.Violations {
			fmt.Printf("violation: %s\n", v.String())
		}
		for _, v := range rep.Findings {
			fmt.Printf("finding:   %s\n", v.String())
		}
	}
	if reproduced {
		fmt.Printf("REPRODUCED: %s/%s still violates (%s)\n",
			art.Violation.Class, art.Violation.Invariant, *in)
		os.Exit(3)
	}
	fmt.Printf("not reproduced: %s/%s no longer violates (%s)\n",
		art.Violation.Class, art.Violation.Invariant, *in)
}

func cmdCorpus(args []string) {
	fs := flag.NewFlagSet("corpus", flag.ExitOnError)
	var (
		n    = fs.Int("n", 16, "number of seed files to emit")
		seed = fs.Int64("seed", 1, "root seed the corpus seeds derive from")
		out  = fs.String("out", "", "target corpus directory (required)")
	)
	fs.Parse(args)
	if *out == "" {
		fs.Usage()
		os.Exit(1)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	for i := 0; i < *n; i++ {
		s := oracle.DeriveSeed(*seed, int64(i))
		body := fmt.Sprintf("go test fuzz v1\nint64(%d)\n", s)
		path := filepath.Join(*out, fmt.Sprintf("nocfuzz-%04d", i))
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("%d seed files written to %s\n", *n, *out)
}
