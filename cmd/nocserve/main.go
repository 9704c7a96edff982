// Command nocserve runs the analysis service: a JSON-over-HTTP server
// (internal/serve) exposing the SB/SLA/XLWX/IBN response-time analyses
// with result caching, admission control and metrics. See docs/API.md
// for the endpoint reference.
//
// Usage:
//
//	nocserve                           # listen on :8080
//	nocserve -addr :9000 -inflight 16  # custom port, shed beyond 16 analyses
//	nocserve -cache 8192 -engines 128  # bigger result/engine caches
//	nocserve -timeout 10s              # default + maximum per-request deadline
//	nocserve -pprof                    # also mount /debug/pprof/
//
// The didactic example round-trips through the service with:
//
//	go run ./cmd/analyze -example > flows.json
//	curl -s localhost:8080/v1/analyze -d "{\"system\": $(cat flows.json), \"method\": \"IBN\"}"
//
// SIGINT/SIGTERM trigger a graceful shutdown: new requests are refused
// with 503 while in-flight analyses drain (bounded by -draintimeout).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wormnoc/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		inflight     = flag.Int("inflight", 0, "max concurrent analyses before shedding with 429 (0 = 2×CPUs)")
		cache        = flag.Int("cache", 0, "result-cache entries (0 = default 4096)")
		engines      = flag.Int("engines", 0, "warm analysis engines kept (0 = default 64)")
		timeout      = flag.Duration("timeout", 30*time.Second, "default and maximum per-request deadline")
		drainTimeout = flag.Duration("draintimeout", 30*time.Second, "graceful-shutdown drain budget")
		batchWorkers = flag.Int("batchworkers", 0, "worker goroutines per batch request (0 = all CPUs)")
		pprofFlag    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "nocserve: unexpected arguments %q\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	svc := serve.New(serve.Config{
		MaxInFlight:     *inflight,
		ResultCacheSize: *cache,
		EngineCacheSize: *engines,
		DefaultTimeout:  *timeout,
		BatchWorkers:    *batchWorkers,
		EnablePprof:     *pprofFlag,
	})
	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- httpServer.ListenAndServe() }()
	log.Printf("nocserve: listening on %s (POST /v1/analyze, POST /v1/batch, POST /v1/whatif, GET /v1/methods, GET /metrics)", *addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("nocserve: %v", err)
	case sig := <-sigc:
		log.Printf("nocserve: %v received, draining in-flight analyses (up to %v)", sig, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		log.Printf("nocserve: drain incomplete: %v", err)
	}
	if err := httpServer.Shutdown(ctx); err != nil {
		log.Printf("nocserve: forced close: %v", err)
	}
	log.Print("nocserve: bye")
}
