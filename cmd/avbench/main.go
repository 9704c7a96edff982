// Command avbench regenerates Figure 5 of the paper: 100 random mappings
// of the autonomous-vehicle benchmark onto each of 26 mesh topologies
// (2x2 up to 10x10), reporting the percentage of mappings deemed fully
// schedulable by XLWX and by the proposed analysis with 2-flit (IBN2) and
// 100-flit (IBN100) buffers.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"wormnoc/internal/exp"
)

func main() {
	var (
		mappings = flag.Int("mappings", 100, "random mappings per topology")
		seed     = flag.Int64("seed", 1, "experiment seed")
		workers  = flag.Int("workers", 0, "worker goroutines (0 = all CPUs)")
		csvPath  = flag.String("csv", "", "also write CSV to this file")
		topos    = flag.String("topos", "", "comma list of WxH shapes (default: the 26 of Figure 5)")
		verbose  = flag.Bool("v", false, "print task progress to stderr")
		stats    = flag.Bool("stats", false, "print analysis-engine telemetry after the run")
	)
	flag.Parse()

	runner := &exp.Runner{Workers: *workers}
	if *verbose {
		runner.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r%d/%d tasks", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	cfg := exp.AVConfig{
		MappingsPerTopology: *mappings,
		Seed:                *seed,
		Runner:              runner,
	}
	if *topos != "" {
		for _, t := range strings.Split(*topos, ",") {
			parts := strings.Split(strings.TrimSpace(t), "x")
			if len(parts) != 2 {
				fatal(fmt.Errorf("bad topology %q, want WxH", t))
			}
			w, err1 := strconv.Atoi(parts[0])
			h, err2 := strconv.Atoi(parts[1])
			if err1 != nil || err2 != nil {
				fatal(fmt.Errorf("bad topology %q", t))
			}
			cfg.Topologies = append(cfg.Topologies, [2]int{w, h})
		}
	}

	start := time.Now()
	res, err := exp.RunAV(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Print(res.Table())
	if *stats {
		fmt.Print(res.Telemetry.String())
	}
	fmt.Printf("elapsed: %v\n", time.Since(start).Round(time.Millisecond))
	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(res.CSV()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("CSV written to %s\n", *csvPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "avbench:", err)
	os.Exit(1)
}
