// Command bench is the repository's end-to-end benchmark. It drives one
// of four workloads through the system's real entry points, checks every
// output, and prints every metric by name and unit; the last line of its
// standard output is a JSON summary. Build and run it through run.sh,
// which also builds the nocserve binary the serve-* workloads drive:
//
//	bash bench/run.sh --workload verify --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh compare runs-a/ runs-b/
//
// The workloads, metrics and bounds are described in bench/README.md and
// listed in BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// sizes fixes how much work a workload does apart from its duration.
type sizes struct {
	minOps int // ops every timed phase completes at least; the digest covers ops [0, minOps)
	pool   int // systems (serve-hot) or scenarios (verify, prove) built in set-up
	warm   int // warm-up requests per set-up (serve-explore)
	replay int // ops a traced run replays
	setups int // set-ups timed per run; the last one serves the timed phase
}

// spec is one named workload: a traffic mix and its sizes.
type spec struct {
	name  string
	sizes sizes
	run   func(r *run) (*measured, error)
}

// workloads are the benchmark's traffic mixes; why each exists is in
// BENCHMARK.json and bench/README.md.
var workloads = []spec{
	{"serve-hot", sizes{minOps: 20000, pool: 64, replay: 2000, setups: 5}, runServeHot},
	{"serve-explore", sizes{minOps: 1000, warm: 8, replay: 100, setups: 5}, runServeExplore},
	{"verify", sizes{minOps: 1000, pool: 3000, replay: 100, setups: 5}, verifyMix.run},
	{"prove", sizes{minOps: 1000, pool: 4000, replay: 100, setups: 5}, proveMix.run},
}

func lookup(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// run is one benchmark run's settings.
type run struct {
	seed     int64
	seconds  time.Duration
	trace    bool
	nocserve string // path of the nocserve binary (serve-* workloads)
	sizes    sizes
	log      io.Writer
}

// measured is what a workload's run produced.
type measured struct {
	*timed
	setups []float64 // seconds per timed set-up
	wrong  int       // outputs that failed verification after the timed phase
	digest string    // hash of the verified outputs of ops [0, minOps)
	layers map[string]float64
	spans  *tracer // the traced replay's spans
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run: serve-hot, serve-explore, verify or prove")
		seed     = fs.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = fs.Float64("seconds", 15, "length of the timed phase in seconds (it also completes at least the workload's minimum op count)")
		trace    = fs.Int("trace", 0, "1 replays ops after the timed phase, times every layer and reports the per-layer metrics")
		nocserve = fs.String("nocserve", "", "path of the nocserve binary the serve-* workloads start")
		out      = fs.String("out", filepath.Join("bench", "out"), "directory for the result JSON (and, in traced runs, the spans under trace/)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		if fs.Arg(0) == "compare" {
			return runCompare(fs.Args()[1:], stdout, stderr)
		}
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	w, ok := lookup(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "bench: need --workload (serve-hot, serve-explore, verify, prove), --seconds > 0 and --trace 0 or 1\n")
		return 2
	}
	r := &run{
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		nocserve: *nocserve,
		sizes:    w.sizes,
		log:      stderr,
	}
	res, err := execute(w, r, *out, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs workload w, prints its metrics and summary line to stdout
// and writes its result file (and spans) under out.
func execute(w spec, r *run, out string, stdout io.Writer) (*result, error) {
	m, err := w.run(r)
	if err != nil {
		return nil, err
	}
	n := len(m.lat)
	if n == 0 {
		return nil, errors.New("no op completed")
	}
	res := &result{
		Schema:   resultSchema,
		Workload: w.name,
		Seed:     r.seed,
		Seconds:  r.seconds.Seconds(),
		Trace:    r.trace,
		Digest:   m.digest,
	}
	res.Attempted = n
	res.Failed = m.failed + m.wrong
	res.Correct = res.Failed == 0
	defs, values := endToEnd, m.endToEnd()
	values["setup_s"] = pct(m.setups, 50)
	if r.trace {
		defs, values = perLayer, make(map[string]float64, len(perLayer))
		for _, d := range perLayer {
			values[d.Name] = 0 // a layer the workload never enters
		}
		for k, v := range m.layers {
			if _, ok := values[k]; !ok {
				return nil, fmt.Errorf("workload reported unknown per-layer metric %s", k)
			}
			values[k] = v
		}
	}
	if res.Metrics, err = fill(defs, values); err != nil {
		return nil, err
	}
	path, err := writeResult(out, res)
	if err != nil {
		return nil, err
	}
	if m.spans != nil {
		spans := filepath.Join(out, "trace", fmt.Sprintf("%s-seed%d.spans.json", w.name, r.seed))
		if err := m.spans.write(spans); err != nil {
			return nil, err
		}
		path += ", spans " + spans
	}

	fmt.Fprintf(stdout, "workload %s seed %d: %d ops in %.2f s, %d failed (%d wrong after verification); result %s\n",
		w.name, r.seed, n, m.wall.Seconds(), res.Failed, m.wrong, path)
	for _, e := range m.errs {
		fmt.Fprintf(stdout, "  failure: %s\n", e)
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "  %-32s %14.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	fmt.Fprintf(stdout, "digest %s %s\n", w.name, m.digest)
	line, err := json.Marshal(res.summary)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return res, nil
}

// timeSetups runs setup n times, returning each duration in seconds and
// the last set-up's value, which serves the timed phase. teardown, when
// non-nil, releases every earlier set-up's value.
func timeSetups[T any](n int, setup func() (T, error), teardown func(T)) (T, []float64, error) {
	var (
		v     T
		times []float64
	)
	for i := range n {
		start := time.Now()
		got, err := setup()
		if err != nil {
			return v, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < n-1 && teardown != nil {
			teardown(got)
		}
		v = got
	}
	return v, times, nil
}
