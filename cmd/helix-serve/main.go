// helix-serve runs the evaluation harness as a long-running HTTP/JSON
// daemon: compile, simulate and figure jobs share one process-wide
// two-tier artifact store, so a warm daemon answers repeated work at
// cache-hit cost instead of re-simulating.
//
// Usage:
//
//	helix-serve                          # listen on :8080, 2 workers
//	helix-serve -addr :9000 -concurrency 4 -queue 128
//	helix-serve -cachedir .cache         # persist traces across restarts
//	helix-serve -maxdeadline 5m          # clamp per-request deadlines
//	helix-serve -addrfile serve.addr     # write the bound address (scripts)
//
// Endpoints:
//
//	POST   /jobs       submit {"kind":"figure","experiment":"fig9"} -> 202 {id}
//	GET    /jobs/{id}  poll; terminal states carry the result
//	DELETE /jobs/{id}  cancel (queued or running); result is flagged partial
//	GET    /metrics    latency quantiles, queue gauges, cache counters
//	GET    /healthz    liveness (503 while draining)
//
// With -blobdir DIR the daemon additionally serves as the shared blob
// backend of a multi-machine evaluation (the -remote flag of
// helix-bench and helix-explore):
//
//	GET/PUT /blobs/{kind}/{scheme}/{key}   content-addressed artifact tier
//	POST    /claims/{scope}/{verb}         work-claim table (acquire/done/release)
//
// Admission control: at most -concurrency jobs run at once and at most
// -queue wait; beyond that submissions shed with 429 + Retry-After.
// Per-request deadlines (deadline_ms) run from admission and are
// clamped to -maxdeadline.
//
// SIGINT/SIGTERM drain gracefully: in-flight and queued jobs finish,
// new submissions get 503, and the process exits once the queue is
// empty (bounded by -draintimeout).
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"helixrc/internal/cliutil"
	"helixrc/internal/harness"
	"helixrc/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		addrFile     = flag.String("addrfile", "", "write the bound address to this file once listening (for scripts; \":0\" picks a free port)")
		concurrency  = flag.Int("concurrency", 2, "jobs executed at once, of every kind")
		queueDepth   = flag.Int("queue", 64, "admitted-but-not-running job bound; submissions beyond it shed with 429")
		defDeadline  = flag.Duration("deadline", 0, "default per-job deadline for requests that set none (0 = unbounded)")
		maxDeadline  = flag.Duration("maxdeadline", 0, "clamp requested deadlines to this (0 = no clamp)")
		drainTimeout = flag.Duration("draintimeout", 2*time.Minute, "how long shutdown waits for admitted jobs to finish")
		retain       = flag.Int("retain", 4096, "finished job records kept for polling")
		parallel     = flag.Int("parallel", 0, "experiment-engine worker count per job (0 = all CPUs)")
		cacheBudget  = flag.Int64("cachebudget", harness.DefaultCacheBudget>>20, "harness memo-cache byte budget in MB (0 = unbounded)")
		cacheDir     = flag.String("cachedir", "", "disk tier for recorded traces and baseline results (survives restarts)")
		cacheClear   = flag.Bool("cacheclear", false, "wipe the -cachedir disk tier before serving")
		blobDir      = flag.String("blobdir", "", "serve a blob backend from this directory: /blobs/{kind}/{scheme}/{key} GET/PUT plus /claims/{scope} work-claiming, for -remote clients (helix-bench, helix-explore)")
		quiet        = flag.Bool("quiet", false, "silence engine diagnostics (cache evictions)")
	)
	flag.Parse()

	harness.SetParallelism(*parallel)
	harness.SetCacheBudget(*cacheBudget << 20)
	if *quiet {
		harness.SetQuiet()
	}
	if err := cliutil.SetupCacheDir(*cacheDir, *cacheClear); err != nil {
		log.Fatal(err)
	}

	s := server.New(server.Config{
		Concurrency:     *concurrency,
		QueueDepth:      *queueDepth,
		DefaultDeadline: *defDeadline,
		MaxDeadline:     *maxDeadline,
		RetainJobs:      *retain,
		BlobDir:         *blobDir,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("helix-serve listening on %s (concurrency %d, queue %d)", bound, *concurrency, *queueDepth)

	hs := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		log.Fatal(err)
	}
	stop() // a second signal kills the process the default way

	log.Printf("helix-serve draining (admitted jobs finish, new submissions get 503)")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	code := 0
	if err := s.Shutdown(dctx); err != nil {
		log.Printf("drain: %v", err)
		code = 1
	}
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	log.Printf("helix-serve stopped")
	os.Exit(code)
}
