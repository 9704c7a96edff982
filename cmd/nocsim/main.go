// Command nocsim drives the cycle-accurate wormhole simulator over a flow
// set described as JSON (see internal/traffic.Document for the schema)
// and reports observed packet latencies, optionally against analytic
// bounds.
//
// Usage:
//
//	nocsim -in flows.json -duration 100000
//	nocsim -in flows.json -duration 100000 -offsets 0,40,0
//	nocsim -in flows.json -sweep 0 -maxoffset 200    # phase search on flow 0
//	nocsim -in flows.json -trace trace.csv           # flit-level trace
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"wormnoc/internal/core"
	"wormnoc/internal/noc"
	"wormnoc/internal/prof"
	"wormnoc/internal/sim"
	"wormnoc/internal/stats"
	"wormnoc/internal/trace"
	"wormnoc/internal/traffic"
)

func main() {
	var (
		in         = flag.String("in", "-", "input JSON file (- = stdin)")
		duration   = flag.Int64("duration", 100_000, "simulated cycles")
		packets    = flag.Int("packets", 0, "stop each flow after N packets (0 = unlimited)")
		offsetStr  = flag.String("offsets", "", "comma list of per-flow release offsets")
		sweepFlow  = flag.Int("sweep", -1, "sweep this flow's offset for worst case (-1 = single run)")
		maxOffset  = flag.Int64("maxoffset", 0, "offset sweep bound (default: swept flow's period)")
		step       = flag.Int64("step", 1, "offset sweep step")
		tracePath  = flag.String("trace", "", "write flit-transfer CSV trace to this file")
		gantt      = flag.Bool("gantt", false, "render an ASCII link-occupancy Gantt chart of the run")
		ganttFrom  = flag.Int64("gantt-from", 0, "Gantt window start cycle")
		ganttTo    = flag.Int64("gantt-to", 0, "Gantt window end cycle (0 = end of trace)")
		bounds     = flag.Bool("bounds", true, "print IBN/XLWX bounds next to observations")
		showStats  = flag.Bool("stats", false, "print per-flow latency distribution statistics")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	var r io.Reader
	if *in == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	sys, err := traffic.ReadJSON(r)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("platform: %s\n", sys.Topology())

	cfg := sim.Config{Duration: noc.Cycles(*duration), MaxPacketsPerFlow: *packets}
	if *offsetStr != "" {
		parts := strings.Split(*offsetStr, ",")
		if len(parts) != sys.NumFlows() {
			fatal(fmt.Errorf("got %d offsets for %d flows", len(parts), sys.NumFlows()))
		}
		cfg.Offsets = make([]noc.Cycles, len(parts))
		for i, p := range parts {
			v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
			if err != nil {
				fatal(fmt.Errorf("bad offset %q: %v", p, err))
			}
			cfg.Offsets[i] = noc.Cycles(v)
		}
	}

	var worst []noc.Cycles
	var completed []int
	if *sweepFlow >= 0 {
		mo := noc.Cycles(*maxOffset)
		if mo == 0 {
			if *sweepFlow >= sys.NumFlows() {
				fatal(fmt.Errorf("sweep flow %d out of range", *sweepFlow))
			}
			mo = sys.Flow(*sweepFlow).Period
		}
		res, err := sim.SweepOffsets(sys, cfg, *sweepFlow, mo, noc.Cycles(*step))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("offset sweep: %d runs of %d cycles on flow %d\n", res.Runs, *duration, *sweepFlow)
		worst = res.Worst
	} else {
		var writers []io.Writer
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			fmt.Fprintln(f, "cycle,link,flow,packet,flit")
			writers = append(writers, f)
		}
		var ganttBuf bytes.Buffer
		if *gantt {
			writers = append(writers, &ganttBuf)
		}
		if len(writers) > 0 {
			cfg.TraceWriter = io.MultiWriter(writers...)
		}
		cfg.RecordLatencies = *showStats
		res, err := sim.Run(sys, cfg)
		if err != nil {
			fatal(err)
		}
		worst = res.WorstLatency
		completed = res.Completed
		fmt.Printf("simulated %d cycles; %d packets in flight at horizon\n", *duration, res.InFlight)
		if *showStats {
			fmt.Println("\nper-flow latency distributions:")
			for i := 0; i < sys.NumFlows(); i++ {
				name := sys.Flow(i).Name
				if name == "" {
					name = fmt.Sprintf("flow%d", i)
				}
				samples := make([]float64, len(res.Latencies[i]))
				for k, l := range res.Latencies[i] {
					samples[k] = float64(l)
				}
				fmt.Printf("  %-12s %s\n", name, stats.Summarise(samples))
			}
		}
		if *gantt {
			events, err := trace.Parse(&ganttBuf)
			if err != nil {
				fatal(err)
			}
			fmt.Println()
			fmt.Print(trace.RenderGantt(sys, events, trace.GanttOptions{
				From: noc.Cycles(*ganttFrom),
				To:   noc.Cycles(*ganttTo),
			}))
			fmt.Print(trace.FlowLegend(sys))
		}
	}

	var ibn, xlwx *core.Result
	if *bounds {
		eng := core.NewEngine(sys)
		ibn, err = eng.Analyze(core.Options{Method: core.IBN})
		if err != nil {
			fatal(err)
		}
		xlwx, err = eng.Analyze(core.Options{Method: core.XLWX})
		if err != nil {
			fatal(err)
		}
	}

	fmt.Printf("\n%-12s %10s %10s", "flow", "C", "observed")
	if completed != nil {
		fmt.Printf(" %9s", "packets")
	}
	if *bounds {
		fmt.Printf(" %10s %10s", "R_IBN", "R_XLWX")
	}
	fmt.Println()
	violation := false
	for i := 0; i < sys.NumFlows(); i++ {
		name := sys.Flow(i).Name
		if name == "" {
			name = fmt.Sprintf("flow%d", i)
		}
		fmt.Printf("%-12s %10d %10d", name, sys.C(i), worst[i])
		if completed != nil {
			fmt.Printf(" %9d", completed[i])
		}
		if *bounds {
			fmt.Printf(" %10s %10s", boundStr(ibn.Flows[i]), boundStr(xlwx.Flows[i]))
			if ibn.Flows[i].Status == core.Schedulable && worst[i] > ibn.Flows[i].R {
				violation = true
			}
		}
		fmt.Println()
	}
	if violation {
		fmt.Println("\nWARNING: an observation exceeded its IBN bound — please report this scenario")
		stopProf()
		os.Exit(2)
	}
}

func boundStr(fr core.FlowResult) string {
	if fr.Status == core.Schedulable || fr.Status == core.DeadlineMiss {
		return strconv.FormatInt(int64(fr.R), 10)
	}
	return "n/a"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nocsim:", err)
	os.Exit(1)
}
