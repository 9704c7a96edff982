package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"

	"wormnoc/internal/canon"
	"wormnoc/internal/core"
	"wormnoc/internal/noc"
	"wormnoc/internal/oracle"
	"wormnoc/internal/serve"
	"wormnoc/internal/traffic"
	"wormnoc/internal/workload"
)

// conns is the closed loop's client count: one keep-alive connection per
// worker, one worker per core of the 2-core reference box.
const conns = 2

// method is the analysis every serve-* request asks for.
const method = "IBN"

// ---- the nocserve child process ----

// server is one nocserve child listening on loopback.
type server struct {
	cmd  *exec.Cmd
	url  string
	log  bytes.Buffer // the child's stderr; read only after done
	done chan struct{}
	err  error // the child's exit, valid after done
}

// startServer starts bin with args on a free loopback port, with
// GOMAXPROCS=procs when procs > 0, and waits until its /healthz answers.
func startServer(bin string, procs int, args ...string) (*server, error) {
	if bin == "" {
		return nil, errors.New("--nocserve is not set; run the benchmark through bench/run.sh")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	s := &server{url: "http://" + addr, done: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	if procs > 0 {
		s.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
	}
	s.cmd.Stderr = &s.log
	// The child must not outlive the benchmark, however the benchmark ends.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.done)
	}()
	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	for deadline := time.Now().Add(30 * time.Second); ; {
		select {
		case <-s.done:
			return nil, fmt.Errorf("nocserve exited during start-up (%v): %s", s.err, s.log.String())
		default:
		}
		if resp, err := probe.Get(s.url + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("nocserve did not become healthy within 30 s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop ends the child (SIGTERM, then SIGKILL after 10 s) and waits for it.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// ---- the client ----

// client posts requests to one server over at most conns connections.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
	}}
}

func (c *client) post(path string, body []byte) (int, []byte, error) {
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// serveCounters are the server-side counters the run reads from /metrics.
type serveCounters struct {
	Requests map[string]float64 `json:"requests"`
	Shed     float64            `json:"shed"`
	Cache    struct {
		Hits   float64 `json:"hits"`
		Misses float64 `json:"misses"`
	} `json:"cache"`
}

func (c *client) counters() (serveCounters, error) {
	var sc serveCounters
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		return sc, err
	}
	defer resp.Body.Close()
	return sc, json.NewDecoder(resp.Body).Decode(&sc)
}

// ratios returns the cache-hit and shed ratios between two scrapes.
func ratios(before, after serveCounters) (hit, shed float64) {
	hits, misses := after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses
	var reqs float64
	for _, ep := range []string{"analyze", "batch", "whatif"} {
		reqs += after.Requests[ep] - before.Requests[ep]
	}
	return ratio(hits, hits+misses), ratio(after.Shed-before.Shed, reqs)
}

// ---- requests and their answers ----

// call is one request and what it asks, so that its answer can be
// computed directly with core and compared.
type call struct {
	kind    string             // "analyze", "batch" or "whatif"
	systems []traffic.Document // one per analysed system; a whatif's base
	deltas  []core.Delta       // a whatif's edit chain
}

func (c call) path() string { return "/v1/" + c.kind }

func (c call) body() ([]byte, error) {
	switch c.kind {
	case "analyze":
		return json.Marshal(serve.AnalyzeRequest{System: c.systems[0], Method: method})
	case "batch":
		return json.Marshal(serve.BatchRequest{Systems: c.systems, Method: method})
	default:
		specs := make([]serve.DeltaSpec, len(c.deltas))
		for i, d := range c.deltas {
			specs[i] = serve.DeltaSpec{Kind: d.Kind.String(), Flow: d.Flow, Other: d.Other, Cycles: int64(d.Cycles),
				Length: d.Length, BufDepth: d.BufDepth, Src: int(d.Src), Dst: int(d.Dst)}
		}
		return json.Marshal(serve.WhatIfRequest{System: &c.systems[0], Method: method, Deltas: specs})
	}
}

// bounds is one analysed system's per-flow bounds and statuses.
type bounds struct {
	r      []int64
	status []uint8 // core.FlowStatus
}

var statusByName = func() map[string]uint8 {
	m := make(map[string]uint8)
	for s := core.Schedulable; s <= core.Diverged; s++ {
		m[s.String()] = uint8(s)
	}
	return m
}()

func boundsOf(flows []serve.FlowResult) (bounds, error) {
	b := bounds{r: make([]int64, len(flows)), status: make([]uint8, len(flows))}
	for i, f := range flows {
		st, ok := statusByName[f.Status]
		if !ok {
			return b, fmt.Errorf("flow %d has unknown status %q", i, f.Status)
		}
		b.r[i], b.status[i] = f.R, st
	}
	return b, nil
}

func coreBounds(res *core.Result) bounds {
	b := bounds{r: make([]int64, len(res.Flows)), status: make([]uint8, len(res.Flows))}
	for i, f := range res.Flows {
		b.r[i], b.status[i] = int64(f.R), uint8(f.Status)
	}
	return b
}

func (b bounds) equal(o bounds) bool {
	return slices.Equal(b.r, o.r) && slices.Equal(b.status, o.status)
}

func hashBounds(h io.Writer, bs []bounds) {
	for _, b := range bs {
		for i := range b.r {
			fmt.Fprintf(h, "%d %d,", b.r[i], b.status[i])
		}
		fmt.Fprintln(h)
	}
}

// decodeBounds strictly decodes a 200 response of kind into the bounds
// of every system it reports: the one analysed, each batch item, or each
// what-if step. A failed item or step is an error.
func decodeBounds(kind string, body []byte) ([]bounds, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var flows [][]serve.FlowResult
	switch kind {
	case "analyze":
		var resp serve.AnalyzeResponse
		if err := dec.Decode(&resp); err != nil {
			return nil, err
		}
		flows = append(flows, resp.Flows)
	case "batch":
		var resp serve.BatchResponse
		if err := dec.Decode(&resp); err != nil {
			return nil, err
		}
		for i, item := range resp.Results {
			if item.AnalyzeResponse == nil {
				return nil, fmt.Errorf("batch item %d failed: %s %s", i, item.Code, item.Error)
			}
			flows = append(flows, item.Flows)
		}
	default:
		var resp serve.WhatIfResponse
		if err := dec.Decode(&resp); err != nil {
			return nil, err
		}
		for i, step := range resp.Steps {
			if step.AnalyzeResponse == nil {
				return nil, fmt.Errorf("what-if step %d failed: %s %s", i, step.Code, step.Error)
			}
			flows = append(flows, step.Flows)
		}
	}
	out := make([]bounds, len(flows))
	for i, f := range flows {
		b, err := boundsOf(f)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// expect computes the call's answer directly with core, in the order
// decodeBounds reports it.
func (c call) expect() ([]bounds, error) {
	opt := core.Options{Method: core.IBN}
	var out []bounds
	for _, doc := range c.systems {
		sys, err := doc.System()
		if err != nil {
			return nil, err
		}
		if c.kind == "whatif" {
			for _, d := range c.deltas {
				if sys, err = core.ApplyDelta(sys, d); err != nil {
					return nil, err
				}
				res, err := core.Analyze(sys, opt)
				if err != nil {
					return nil, err
				}
				out = append(out, coreBounds(res))
			}
			continue
		}
		res, err := core.Analyze(sys, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, coreBounds(res))
	}
	return out, nil
}

// check compares an answer with core's.
func (c call) check(got []bounds) error {
	want, err := c.expect()
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s reported %d systems, want %d", c.kind, len(got), len(want))
	}
	for i := range want {
		if !got[i].equal(want[i]) {
			return fmt.Errorf("%s system %d: bounds differ from core", c.kind, i)
		}
	}
	return nil
}

// ---- serve-hot ----

// hotPool builds n oracle-generated systems of 2 to 32 flows and 3n
// distinct requests over them: n analyses, n batches of 8 systems drawn
// zipf(1.2) and n what-if chains (buf 4, then 6). Flow counts and batch
// picks come from the shape stream, so every seed's pool has the same
// sizes. Up to 32 flows rather than the generator's default 8, so that
// decoding, keying and encoding, not the loopback round trip, are most of
// a request: with tiny requests host noise moved whole runs by ±10%.
func hotPool(seed int64, n int) ([]call, error) {
	draw := func(s int64) (traffic.Document, float64, bool) {
		doc := oracle.Generate(s, oracle.GenConfig{MaxFlows: 32}).Doc
		return doc, float64(len(doc.Flows)), true
	}
	docs, err := drawStrata(newStrata(n, draw), seed, draw)
	if err != nil {
		return nil, err
	}
	pool := make([]call, 0, 3*n)
	for _, d := range docs {
		pool = append(pool, call{kind: "analyze", systems: []traffic.Document{d}})
	}
	z := rand.NewZipf(rand.New(rand.NewSource(shapeSeed)), 1.2, 1, uint64(n-1))
	for range n {
		batch := make([]traffic.Document, 8)
		for j := range batch {
			batch[j] = docs[z.Uint64()]
		}
		pool = append(pool, call{kind: "batch", systems: batch})
	}
	for _, d := range docs {
		pool = append(pool, call{kind: "whatif", systems: []traffic.Document{d},
			deltas: []core.Delta{{Kind: core.DeltaBufDepth, BufDepth: 4}, {Kind: core.DeltaBufDepth, BufDepth: 6}}})
	}
	return pool, nil
}

// hotServerProcs is serve-hot's server GOMAXPROCS. Its ops take about a
// tenth of a millisecond, and with both cores the server's scheduler and
// the client's contend for them, which moved whole runs by ±10%; on one
// core each, runs agreed within a few percent. serve-explore's server,
// which is CPU-bound, keeps both.
const hotServerProcs = 1

// hotOp maps op i to its pool entry: analyze, batch and what-if in
// 70/15/15 proportion, entries uniform within a kind.
func hotOp(i int64, n int) int {
	h := shape(i)
	entry := int((h / 100) % uint64(n))
	switch {
	case h%100 < 70:
		return entry
	case h%100 < 85:
		return n + entry
	default:
		return 2*n + entry
	}
}

func runServeHot(r *run) (*measured, error) {
	n := r.sizes.pool
	pool, err := hotPool(r.seed, n)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(pool))
	for p, c := range pool {
		b, err := c.body()
		if err != nil {
			return nil, err
		}
		bodies[p] = b
	}
	// Set-up warms the server with every pool request twice; the second
	// answer comes from the cache and is the body every timed response
	// must equal byte for byte.
	type warmed struct {
		srv  *server
		refs [][]byte
	}
	w, setups, err := timeSetups(r.sizes.setups, func() (warmed, error) {
		srv, err := startServer(r.nocserve, hotServerProcs)
		if err != nil {
			return warmed{}, err
		}
		cl := newClient(srv.url)
		defer cl.http.CloseIdleConnections()
		refs := make([][]byte, len(pool))
		for range 2 {
			for p, c := range pool {
				status, body, err := cl.post(c.path(), bodies[p])
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", status, body)
				}
				if err != nil {
					srv.stop()
					return warmed{}, fmt.Errorf("warming pool request %d: %w", p, err)
				}
				refs[p] = body
			}
		}
		return warmed{srv, refs}, nil
	}, func(w warmed) { w.srv.stop() })
	if err != nil {
		return nil, err
	}
	defer w.srv.stop()

	// Every cached answer must be core's, before any is timed.
	var (
		wrong int
		errs  []string
	)
	answers := make([][]bounds, len(pool))
	for p, c := range pool {
		got, err := decodeBounds(c.kind, w.refs[p])
		if err == nil {
			err = c.check(got)
		}
		if err != nil {
			wrong++
			errs = append(errs, fmt.Sprintf("pool request %d: %v", p, err))
		}
		answers[p] = got
	}

	cl := newClient(w.srv.url)
	defer cl.http.CloseIdleConnections()
	t, err := timeServed(r, w.srv, cl, func(_, i int) (time.Duration, error) {
		p := hotOp(int64(i), n)
		start := time.Now()
		status, body, err := cl.post(pool[p].path(), bodies[p])
		lat := time.Since(start)
		switch {
		case err != nil:
			return lat, err
		case status != http.StatusOK:
			return lat, fmt.Errorf("%s: status %d", pool[p].kind, status)
		case !bytes.Equal(body, w.refs[p]):
			return lat, fmt.Errorf("%s: response differs from the verified cached answer", pool[p].kind)
		}
		return lat, nil
	})
	if err != nil {
		return nil, err
	}
	m := &measured{timed: t.timed, setups: setups}
	m.wrong, m.errs = wrong, append(m.errs, errs...)

	h := sha256.New()
	for i := range r.sizes.minOps {
		hashBounds(h, answers[hotOp(int64(i), n)])
	}
	m.digest = hex.EncodeToString(h.Sum(nil))

	if r.trace {
		local := serve.New(serve.Config{BatchWorkers: 1})
		for range 2 {
			for p, c := range pool {
				serveLocal(local, c.path(), bodies[p])
			}
		}
		ops := make([]replayOp, r.sizes.replay)
		for i := range ops {
			p := hotOp(int64(i), n)
			ops[i] = replayOp{c: pool[p], body: bodies[p], ref: w.refs[p]}
		}
		if m.layers, m.spans, err = t.replay(cl, local, ops, r.log); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// ---- serve-explore ----

// fig4b is the platform of the paper's Fig. 4(b): an 8×8 mesh with
// 2-flit buffers, 1-cycle links and no routing latency.
var fig4b = func() *noc.Topology {
	t, err := noc.NewMesh(8, 8, noc.RouterConfig{BufDepth: 2, LinkLatency: 1})
	if err != nil {
		panic(err)
	}
	return t
}()

// exploreCall builds op i of serve-explore: a system (or a batch of 4)
// never sent before, generated by workload.Synthetic on the Fig. 4(b)
// platform with 100–300 flows. Kinds come in proportion analyze 60 /
// batch 15 / what-if 25; a what-if is the chain period+64, remap,
// buf 4, period back.
func exploreCall(seed, i int64) (call, error) {
	h := shape(i)
	rng := rand.New(rand.NewSource(oracle.DeriveSeed(seed, i)))
	system := func(k int) (*traffic.System, error) {
		flows := 100 + int(uint64(oracle.DeriveSeed(int64(h), int64(k)))%201)
		return workload.Synthetic(fig4b, workload.SynthConfig{NumFlows: flows, Seed: rng.Int63()})
	}
	c := call{kind: "analyze"}
	count := 1
	switch {
	case h%100 < 60:
	case h%100 < 75:
		c.kind, count = "batch", 4
	default:
		c.kind = "whatif"
	}
	for k := range count {
		sys, err := system(k)
		if err != nil {
			return c, err
		}
		c.systems = append(c.systems, sys.ToDocument())
	}
	if c.kind == "whatif" {
		sys := c.systems[0]
		edited, moved := rng.Intn(len(sys.Flows)), rng.Intn(len(sys.Flows))
		nodes := fig4b.NumNodes()
		src := rng.Intn(nodes)
		dst := rng.Intn(nodes - 1)
		if dst >= src {
			dst++
		}
		period := noc.Cycles(sys.Flows[edited].Period)
		c.deltas = []core.Delta{
			{Kind: core.DeltaPeriod, Flow: edited, Cycles: period + 64},
			{Kind: core.DeltaMapping, Flow: moved, Src: noc.NodeID(src), Dst: noc.NodeID(dst)},
			{Kind: core.DeltaBufDepth, BufDepth: 4},
			{Kind: core.DeltaPeriod, Flow: edited, Cycles: period},
		}
	}
	return c, nil
}

// exploreCache is serve-explore's result-cache size. Its requests never
// hit, so the size only decides when the cache is full; at the default of
// 4096 that took most of a run, and the peak RSS measured how far a run
// got. 256 results fill in the first second.
const exploreCache = 256

// Warm-up and replayed ops use their own op indices, so every request of
// a run is new to the server.
const (
	exploreWarmBase   = int64(-1) << 40
	exploreReplayBase = int64(1) << 40
)

// answered is one timed op's decoded answer; bodies are not kept.
type answered struct {
	op  int
	got []bounds
}

func runServeExplore(r *run) (*measured, error) {
	srv, setups, err := timeSetups(r.sizes.setups, func() (*server, error) {
		srv, err := startServer(r.nocserve, 0, "-cache", strconv.Itoa(exploreCache))
		if err != nil {
			return nil, err
		}
		cl := newClient(srv.url)
		defer cl.http.CloseIdleConnections()
		for k := range r.sizes.warm {
			c, err := exploreCall(r.seed, exploreWarmBase+int64(k))
			if err == nil {
				_, err = postChecked(cl, c)
			}
			if err != nil {
				srv.stop()
				return nil, fmt.Errorf("warm-up request %d: %w", k, err)
			}
		}
		return srv, nil
	}, (*server).stop)
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	cl := newClient(srv.url)
	defer cl.http.CloseIdleConnections()
	got := make([][]answered, conns)
	t, err := timeServed(r, srv, cl, func(w, i int) (time.Duration, error) {
		c, err := exploreCall(r.seed, int64(i))
		if err != nil {
			return 0, err
		}
		body, err := c.body()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		status, resp, err := cl.post(c.path(), body)
		lat := time.Since(start)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("%s: status %d", c.kind, status)
		}
		if err != nil {
			return lat, err
		}
		bs, err := decodeBounds(c.kind, resp)
		if err != nil {
			return lat, fmt.Errorf("%s: %w", c.kind, err)
		}
		got[w] = append(got[w], answered{i, bs})
		return lat, nil
	})
	if err != nil {
		return nil, err
	}
	m := &measured{timed: t.timed, setups: setups}

	// Verify every answer against core, on as many workers as the loop had.
	byOp := make([][]bounds, len(m.lat))
	for _, g := range got {
		for _, a := range g {
			byOp[a.op] = a.got
		}
	}
	m.wrong, m.errs = verifyAll(len(byOp), func(i int) error {
		if byOp[i] == nil {
			return nil // the op failed and was counted in the loop
		}
		c, err := exploreCall(r.seed, int64(i))
		if err != nil {
			return err
		}
		return c.check(byOp[i])
	}, m.errs)
	h := sha256.New()
	for _, bs := range byOp[:r.sizes.minOps] {
		hashBounds(h, bs)
	}
	m.digest = hex.EncodeToString(h.Sum(nil))

	if r.trace {
		ops := make([]replayOp, r.sizes.replay)
		for k := range ops {
			c, err := exploreCall(r.seed, exploreReplayBase+int64(k))
			if err != nil {
				return nil, err
			}
			body, err := c.body()
			if err != nil {
				return nil, err
			}
			ops[k] = replayOp{c: c, body: body}
		}
		if m.layers, m.spans, err = t.replay(cl, serve.New(serve.Config{BatchWorkers: 1}), ops, r.log); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// postChecked posts c and checks its answer against core.
func postChecked(cl *client, c call) ([]bounds, error) {
	body, err := c.body()
	if err != nil {
		return nil, err
	}
	status, resp, err := cl.post(c.path(), body)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("%s: status %d", c.kind, status)
	}
	if err != nil {
		return nil, err
	}
	bs, err := decodeBounds(c.kind, resp)
	if err == nil {
		err = c.check(bs)
	}
	return bs, err
}

// verifyAll runs check(0..n-1) on conns workers and returns how many
// failed, appending the first few errors to errs.
func verifyAll(n int, check func(i int) error, errs []string) (int, []string) {
	var (
		mu    sync.Mutex
		wrong int
		wg    sync.WaitGroup
	)
	next := make(chan int)
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := check(i); err != nil {
					mu.Lock()
					wrong++
					if len(errs) < 10 {
						errs = append(errs, fmt.Sprintf("op %d: %v", i, err))
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := range n {
		next <- i
	}
	close(next)
	wg.Wait()
	return wrong, errs
}

// ---- the timed phase and the traced replay of both serve workloads ----

// served is what a serve-* timed phase measured, plus what its traced
// replay adds.
type served struct {
	*timed
	clientRSS          float64
	clientCPU          time.Duration
	hitRatio, shedRate float64
	gcFraction         float64
}

// timeServed runs the closed loop against srv and measures the server's
// CPU and memory, the client's, and the server's cache and shed counters.
// The client runs on one processor, so that its scheduler does not
// contend for both cores with the server's.
func timeServed(r *run, srv *server, cl *client, do func(w, i int) (time.Duration, error)) (*served, error) {
	before, err := cl.counters()
	if err != nil {
		return nil, err
	}
	self := os.Getpid()
	if err := resetPeakRSS(self); err != nil {
		return nil, err
	}
	client0, err := procCPU(self)
	if err != nil {
		return nil, err
	}
	procs := runtime.GOMAXPROCS(1)
	gc0, total0 := gcClock()
	loop, err := closedLoop(conns, r.sizes.minOps, r.seconds, srv.pid(), do)
	gc1, total1 := gcClock()
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return nil, err
	}
	client1, err := procCPU(self)
	if err != nil {
		return nil, err
	}
	t := &served{timed: loop, clientCPU: client1 - client0, gcFraction: ratio(gc1-gc0, total1-total0)}
	if t.clientRSS, err = procPeakRSSMB(self); err != nil {
		return nil, err
	}
	after, err := cl.counters()
	if err != nil {
		return nil, err
	}
	t.hitRatio, t.shedRate = ratios(before, after)
	return t, nil
}

// replayOp is one op a traced run replays.
type replayOp struct {
	c    call
	body []byte
	// ref is the cached answer the server must return byte for byte
	// (serve-hot); nil when the request is new to the server and its
	// answer is checked against core.
	ref []byte
}

// serveLocal runs one request through an in-process server's handler.
func serveLocal(s *serve.Server, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// serveStages are the spans replayStages splits a handler into.
var serveStages = []string{"traffic.decode", "canon.key", "traffic.system", "core.sets", "core.fixedpoint", "core.incremental_step", "serve.encode"}

// replay sends each op once more over HTTP, single-threaded, then runs it
// through the handler of local — an in-process server in the child's
// cache state — and then through the handler's stages one by one.
func (t *served) replay(cl *client, local *serve.Server, ops []replayOp, log io.Writer) (map[string]float64, *tracer, error) {
	tr := newTracer()
	var tel core.Telemetry
	overhead := make(map[int64]float64)
	start := time.Now()
	for k, op := range ops {
		o := int64(k)
		root := tr.begin(o, 0, "op")
		var (
			status int
			body   []byte
			err    error
		)
		rtt := tr.time(o, root, "http.rtt", func() { status, body, err = cl.post(op.c.path(), op.body) })
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		if err == nil && op.ref != nil && !bytes.Equal(body, op.ref) {
			err = errors.New("response differs from the verified cached answer")
		}
		if err != nil {
			return nil, nil, fmt.Errorf("replaying op %d over HTTP: %w", k, err)
		}
		req := httptest.NewRequest(http.MethodPost, op.c.path(), bytes.NewReader(op.body))
		rec := httptest.NewRecorder()
		handler := tr.time(o, root, "serve.handler", func() { local.Handler().ServeHTTP(rec, req) })
		if rec.Code != http.StatusOK {
			return nil, nil, fmt.Errorf("replaying op %d in process: status %d", k, rec.Code)
		}
		if op.ref == nil {
			got, err := decodeBounds(op.c.kind, rec.Body.Bytes())
			if err == nil {
				err = op.c.check(got)
			}
			if err != nil {
				return nil, nil, fmt.Errorf("replaying op %d in process: %w", k, err)
			}
		}
		// Batch handlers fan out over the child's cores, so their round
		// trip holds no single-threaded handler time to subtract.
		if op.c.kind != "batch" {
			overhead[o] = ms(rtt - handler)
		}
		if err := replayStages(tr, o, root, op, rec.Body.Bytes(), &tel); err != nil {
			return nil, nil, fmt.Errorf("replaying op %d's stages: %w", k, err)
		}
		tr.end(root)
	}
	wall := time.Since(start)

	fmt.Fprintf(log, "bench: %s\n", tr.accounting("serve.handler", serveStages...))
	handler := values(tr.perOp("serve.handler"))
	return map[string]float64{
		"http.overhead_ms.p50":         pct(values(overhead), 50),
		"serve.handler_ms.p50":         pct(handler, 50),
		"serve.handler_ms.p99":         pct(handler, 99),
		"traffic.decode_ms.p50":        pct(values(tr.perOp("traffic.decode")), 50),
		"canon.key_ms.p50":             pct(values(tr.perOp("canon.key")), 50),
		"serve.encode_ms.p50":          pct(values(tr.perOp("serve.encode")), 50),
		"serve.residual_ms.p50":        pct(values(tr.residual("serve.handler", serveStages...)), 50),
		"serve.cache_hit_ratio":        t.hitRatio,
		"serve.shed_ratio":             t.shedRate,
		"traffic.system_ms.p50":        pct(tr.perCall("traffic.system"), 50),
		"core.sets_ms.p50":             pct(tr.perCall("core.sets"), 50),
		"core.fixedpoint_ms.p50":       pct(tr.perCall("core.fixedpoint"), 50),
		"core.incremental_step_ms.p50": pct(tr.perCall("core.incremental_step"), 50),
		"core.iterations_per_flow":     ratio(float64(tel.Iterations), float64(tel.Flows)),
		"core.memo_hit_ratio":          ratio(float64(tel.MemoHits), float64(tel.MemoHits+tel.MemoMisses)),
		"client.cpu_ms_per_op":         ms(t.clientCPU) / float64(len(t.lat)),
		"client.maxrss_mb":             t.clientRSS,
		"runtime.gc_cpu_fraction":      t.gcFraction,
		"trace.overhead_ratio":         tr.overhead(wall),
	}, tr, nil
}

// replayStages re-runs, one span per call, what the serve handler did for
// op: the strict decode, every canonical key it computed, and — unless
// the result cache answered — system materialisation, interference sets
// and the fixed point (or, for a what-if, each incremental step); then
// the encoding of its response resp. Fixed-point telemetry adds to tel.
func replayStages(tr *tracer, op int64, root int, o replayOp, resp []byte, tel *core.Telemetry) error {
	var err error
	cached := o.ref != nil
	timeDecode := func(v any) {
		tr.time(op, root, "traffic.decode", func() { err = decodeStrict(o.body, v) })
	}
	key := func(fn func()) { tr.time(op, root, "canon.key", fn) }
	opt := core.Options{Method: core.IBN}
	// build materialises doc and its interference sets, as an engine-cache
	// miss does.
	build := func(doc traffic.Document) (sys *traffic.System, sets *core.Sets, err error) {
		tr.time(op, root, "traffic.system", func() { sys, err = doc.System() })
		if err == nil {
			tr.time(op, root, "core.sets", func() { sets = core.BuildSets(sys) })
		}
		return sys, sets, err
	}
	analyze := func(doc traffic.Document) error {
		key(func() { canon.Key(doc, opt) })
		if cached {
			return nil
		}
		key(func() { canon.SystemKey(doc) })
		sys, sets, err := build(doc)
		if err != nil {
			return err
		}
		tr.time(op, root, "core.fixedpoint", func() {
			var t core.Telemetry
			_, t, err = core.NewEngineWithSets(sys, sets).AnalyzeWithTelemetry(opt)
			tel.Add(t)
		})
		key(func() { canon.SystemKey(doc) })
		return err
	}

	var out any
	switch o.c.kind {
	case "analyze":
		var req serve.AnalyzeRequest
		if timeDecode(&req); err != nil {
			return err
		}
		// The handler keys the request once to probe the cache and, on a
		// miss, once more inside its analysis path.
		if !cached {
			key(func() { canon.Key(req.System, opt) })
		}
		if err = analyze(req.System); err != nil {
			return err
		}
		out = &serve.AnalyzeResponse{}
	case "batch":
		var req serve.BatchRequest
		if timeDecode(&req); err != nil {
			return err
		}
		for _, doc := range req.Systems {
			if err = analyze(doc); err != nil {
				return err
			}
		}
		out = &serve.BatchResponse{}
	default:
		var req serve.WhatIfRequest
		if timeDecode(&req); err != nil {
			return err
		}
		doc := *req.System
		var inc *core.Incremental
		key(func() { canon.SystemKey(doc) })
		if cached {
			sys, err := doc.System()
			if err != nil {
				return err
			}
			inc = core.NewIncrementalWithSets(sys, core.BuildSets(sys))
		} else {
			sys, sets, err := build(doc)
			if err != nil {
				return err
			}
			inc = core.NewIncrementalWithSets(sys, sets)
		}
		var prev string
		key(func() { prev = canon.Key(doc, opt) })
		for _, d := range o.c.deltas {
			tr.time(op, root, "core.incremental_step", func() {
				if err = inc.Apply(d); err == nil && !cached {
					_, err = inc.Analyze(context.Background(), opt)
				}
			})
			if err != nil {
				return err
			}
			key(func() { prev = canon.DeltaKey(prev, d) })
		}
		out = &serve.WhatIfResponse{}
	}
	if err != nil {
		return err
	}
	if err := json.Unmarshal(resp, out); err != nil {
		return err
	}
	tr.time(op, root, "serve.encode", func() {
		enc := json.NewEncoder(io.Discard)
		enc.SetIndent("", "  ")
		err = enc.Encode(out)
	})
	return err
}

// decodeStrict decodes body the way the serve handlers do: unknown
// fields and trailing data are errors.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}
