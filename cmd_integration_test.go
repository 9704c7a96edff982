package wormnoc_test

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"wormnoc/internal/core"
	"wormnoc/internal/serve"
	"wormnoc/internal/workload"
)

// Command-level integration tests: each cmd/ binary is built once and
// driven with small inputs, asserting the key lines of its output.
// Skipped under -short (building binaries is the slow part).

var (
	binDirOnce sync.Once
	binDir     string
	binErr     error
)

func buildCmd(t *testing.T, name string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("binary builds skipped in -short mode")
	}
	binDirOnce.Do(func() {
		binDir, binErr = os.MkdirTemp("", "wormnoc-bin")
	})
	if binErr != nil {
		t.Fatal(binErr)
	}
	bin := filepath.Join(binDir, name)
	if _, err := os.Stat(bin); err == nil {
		return bin
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building cmd/%s: %v\n%s", name, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, stdin string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	out, err := cmd.CombinedOutput()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running %s: %v\n%s", bin, err, out)
	}
	return string(out), code
}

func TestCmdDidactic(t *testing.T) {
	bin := buildCmd(t, "didactic")
	out, code := run(t, bin, "", "-maxoffset", "200", "-step", "4")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{
		"Table I", "Table II",
		"336", "460", "396", "348", // the τ3 analysis row
		"MPB demonstrated",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdAnalyze(t *testing.T) {
	bin := buildCmd(t, "analyze")
	example, code := run(t, bin, "", "-example")
	if code != 0 {
		t.Fatalf("-example failed: %s", example)
	}
	out, code := run(t, bin, example, "-all", "-explain", "τ3")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"R_SB", "R_XLWX", "R_IBN", "460", "348", "bi cap 6", "SCHEDULABLE"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// An unschedulable set exits with code 2.
	unsched := `{"mesh":{"width":4,"height":1,"buf":2,"linkl":1,"routl":0},"flows":[
	 {"name":"hog","priority":1,"period":100,"deadline":100,"length":80,"src":0,"dst":3},
	 {"name":"meek","priority":2,"period":400,"deadline":90,"length":10,"src":0,"dst":3}]}`
	out, code = run(t, bin, unsched, "-method", "IBN")
	if code != 2 || !strings.Contains(out, "NOT schedulable") {
		t.Errorf("unschedulable set: exit %d\n%s", code, out)
	}
	// Unknown method is rejected up front with usage and the flag-error
	// exit status, even before any input is read.
	out, code = run(t, bin, "", "-method", "BOGUS")
	if code != 2 || !strings.Contains(out, "unknown analysis method") || !strings.Contains(out, "Usage") {
		t.Errorf("bogus method: exit %d\n%s", code, out)
	}
}

func TestCmdSweep(t *testing.T) {
	bin := buildCmd(t, "sweep")
	out, code := run(t, bin, "", "-mesh", "3x3", "-flows", "40", "-sets", "3", "-seed", "1")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"3x3 mesh", "SB", "XLWX", "IBN2", "IBN100", "40"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	_, code = run(t, bin, "", "-mesh", "bogus")
	if code != 1 {
		t.Errorf("bad mesh: exit %d", code)
	}
	// A bad -variant fails with usage even in modes that never consult
	// it (it used to be silently ignored with -buffers).
	out, code = run(t, bin, "", "-buffers", "-variant", "bogus")
	if code != 2 || !strings.Contains(out, "unknown -variant") || !strings.Contains(out, "Usage") {
		t.Errorf("bogus variant: exit %d\n%s", code, out)
	}
}

func TestCmdAVBench(t *testing.T) {
	bin := buildCmd(t, "avbench")
	out, code := run(t, bin, "", "-mappings", "3", "-topos", "2x2,3x3", "-seed", "1")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"2x2", "3x3", "XLWX", "IBN2"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdNocsim(t *testing.T) {
	analyze := buildCmd(t, "analyze")
	example, _ := run(t, analyze, "", "-example")
	bin := buildCmd(t, "nocsim")
	out, code := run(t, bin, example, "-duration", "8000", "-gantt", "-gantt-to", "400")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"simulated 8000 cycles", "legend:", "R_IBN", "τ3"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Offset sweep mode.
	out, code = run(t, bin, example, "-duration", "8000", "-sweep", "0", "-maxoffset", "40", "-step", "8")
	if code != 0 || !strings.Contains(out, "offset sweep: 5 runs") {
		t.Errorf("sweep mode: exit %d\n%s", code, out)
	}
}

func TestCmdNocfuzz(t *testing.T) {
	bin := buildCmd(t, "nocfuzz")
	// A healthy tree: a small run finds no violations, ends with one
	// summary row per analysis and exits 0.
	out, code := run(t, bin, "", "run", "-n", "6", "-seed", "3", "-out", t.TempDir())
	if code != 0 || !strings.Contains(out, "0 violations") || !strings.Contains(out, "flow bounds attacked") {
		t.Errorf("run mode: exit %d\n%s", code, out)
	}
	for _, m := range []string{"SB", "SLA", "XLWX", "IBN"} {
		if !regexp.MustCompile(`(?m)^\s*` + m + `\s+\d+\s+\d+\s+(SAFE so far|OPTIMISTIC)$`).MatchString(out) {
			t.Errorf("run summary has no %s row:\n%s", m, out)
		}
	}
	// An unknown generator preset is a usage error.
	if out, code = run(t, bin, "", "run", "-gen", "bogus"); code != 1 || !strings.Contains(out, "unknown -gen") || !strings.Contains(out, "usage") {
		t.Errorf("bogus -gen: exit %d\n%s", code, out)
	}
	// Corpus mode emits go-fuzz seed files.
	corpusDir := t.TempDir()
	out, code = run(t, bin, "", "corpus", "-n", "2", "-seed", "5", "-out", corpusDir)
	if code != 0 {
		t.Fatalf("corpus mode: exit %d\n%s", code, out)
	}
	raw, err := os.ReadFile(filepath.Join(corpusDir, "nocfuzz-0000"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(raw), "go test fuzz v1\nint64(") {
		t.Errorf("corpus file is not a go-fuzz seed: %q", raw)
	}
	// Replaying an artifact whose recorded violation does not reproduce
	// (a healthy scenario with a fabricated breach) exits 0.
	artifact := `{
	  "version": 1,
	  "seed": 0,
	  "scenario": {
	    "mesh": {"width": 3, "height": 1, "buf": 2, "linkl": 1, "routl": 0},
	    "flows": [
	      {"name": "a", "priority": 1, "period": 1000, "deadline": 1000, "length": 8, "src": 0, "dst": 2},
	      {"name": "b", "priority": 2, "period": 2000, "deadline": 2000, "length": 8, "src": 1, "dst": 2}
	    ]
	  },
	  "check": {"seed": 1, "duration": 8000, "restarts": 1, "refine_steps": 1, "probes_per_flow": 2},
	  "violation": {"class": "unsound", "invariant": "sim<=IBN", "method": "IBN", "flow": 0, "bound": 1, "observed": 2}
	}`
	artPath := filepath.Join(t.TempDir(), "ce.json")
	if err := os.WriteFile(artPath, []byte(artifact), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code = run(t, bin, "", "replay", "-in", artPath)
	if code != 0 || !strings.Contains(out, "not reproduced") {
		t.Errorf("replay mode: exit %d\n%s", code, out)
	}
	// Malformed artifacts and unknown commands fail with exit 1.
	if err := os.WriteFile(artPath, []byte(`{"version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, code = run(t, bin, "", "replay", "-in", artPath); code != 1 {
		t.Errorf("bad artifact: exit %d", code)
	}
	if out, code = run(t, bin, "", "bogus"); code != 1 || !strings.Contains(out, "usage") {
		t.Errorf("unknown command: exit %d\n%s", code, out)
	}
}

// TestCmdNocserve boots the server as a process on a free loopback port,
// checks its answers against the in-process analysis, and requires a
// clean exit after a SIGTERM drain.
func TestCmdNocserve(t *testing.T) {
	bin := buildCmd(t, "nocserve")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	logPath := filepath.Join(t.TempDir(), "nocserve.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer logFile.Close()
	logs := func() string {
		b, _ := os.ReadFile(logPath)
		return string(b)
	}
	cmd := exec.Command(bin, "-addr", addr, "-draintimeout", "5s")
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	stopped := false
	defer func() {
		if !stopped {
			cmd.Process.Kill()
			<-exited
		}
	}()

	base := "http://" + addr
	for deadline := time.Now().Add(30 * time.Second); ; {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case err := <-exited:
			stopped = true
			t.Fatalf("nocserve exited during start-up (%v):\n%s", err, logs())
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("nocserve not healthy within 30s:\n%s", logs())
		}
	}

	sys := workload.Didactic(2)
	for _, m := range core.Methods() {
		want, err := core.Analyze(sys, core.Options{Method: m})
		if err != nil {
			t.Fatal(err)
		}
		payload, err := json.Marshal(serve.AnalyzeRequest{System: sys.ToDocument(), Method: m.String()})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/v1/analyze", "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		var got serve.AnalyzeResponse
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, decode error %v", m, resp.StatusCode, err)
		}
		if got.Schedulable != want.Schedulable || len(got.Flows) != len(want.Flows) {
			t.Fatalf("%s: served %+v, want %+v", m, got, want)
		}
		for i, f := range got.Flows {
			if f.R != int64(want.Flows[i].R) || f.Status != want.Flows[i].Status.String() {
				t.Errorf("%s: flow %d served R=%d (%s), want R=%d (%v)", m, i, f.R, f.Status, want.Flows[i].R, want.Flows[i].Status)
			}
		}
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		stopped = true
		if err != nil {
			t.Fatalf("nocserve exit after SIGTERM: %v\n%s", err, logs())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("nocserve did not exit within 15s of SIGTERM:\n%s", logs())
	}
	if !strings.Contains(logs(), "nocserve: bye") {
		t.Errorf("no drain completion in the log:\n%s", logs())
	}
}
