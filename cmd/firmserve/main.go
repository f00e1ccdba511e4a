// Command firmserve runs the FirmRES analysis as a long-lived HTTP
// service: firmware images are uploaded, journaled into a persistent
// priority job queue, analyzed by a bounded worker fleet through one
// shared result cache, and read back as full JSON reports — the
// continuous-scanning deployment mode the paper's 147k-image crawl
// implies, rather than one CLI process per image.
//
// Usage:
//
//	firmserve [-addr host:port] [-data dir] [-cache dir] [-no-cache]
//	          [-max-inflight n] [-max-queue n] [-retries n] [-retain n]
//	          [-rate r] [-burst n] [-lint]
//	          [-drain-timeout d] [-addr-file path]
//
// API:
//
//	POST /v1/images[?priority=N]   submit raw image bytes → job JSON
//	GET  /v1/jobs                  list jobs + queue census
//	GET  /v1/jobs/{id}             job status + report when done
//	GET  /v1/jobs/{id}/events      SSE: state transitions + stage progress
//	GET  /metrics                  Prometheus text exposition
//	GET  /healthz                  200 serving / 503 draining
//
// Durability: accepted jobs are journaled before the response; a crash —
// SIGKILL included — replays queued and interrupted jobs on the next boot
// from the same -data directory. SIGTERM/SIGINT drain gracefully: intake
// stops, inflight analyses finish (bounded by -drain-timeout), queued
// jobs stay journaled, and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"firmres"
	"firmres/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr         = flag.String("addr", "127.0.0.1:8787", "listen address (host:port; port 0 picks a free port)")
		dataDir      = flag.String("data", "firmserve-data", "data directory: job journal, blobs, results")
		cacheDir     = flag.String("cache", "", "persistent result cache directory (default: <data>/cache)")
		noCache      = flag.Bool("no-cache", false, "disable the result cache entirely")
		maxInflight  = flag.Int("max-inflight", 0, "concurrent analyses (0 = GOMAXPROCS)")
		maxQueue     = flag.Int("max-queue", serve.DefaultMaxQueued, "max jobs waiting for a worker; full queue returns 429")
		retries      = flag.Int("retries", serve.DefaultMaxAttempts, "analysis attempts per job for transient failures")
		retain       = flag.Int("retain", serve.DefaultMaxTerminal, "finished jobs kept before the oldest (journal, result, unshared blob) are pruned; -1 = unlimited")
		rate         = flag.Float64("rate", 0, "per-tenant submissions per second (0 = unlimited)")
		burst        = flag.Int("burst", 16, "per-tenant burst size")
		lint         = flag.Bool("lint", false, "run the lint passes on every job")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max wait for inflight jobs on SIGTERM before re-journaling them")
		addrFile     = flag.String("addr-file", "", "write the bound listen address to this file once serving (for scripts)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "firmserve: unexpected arguments; firmware is submitted over HTTP (POST /v1/images)")
		return 2
	}

	cfg := serve.Config{
		DataDir:     *dataDir,
		MaxInflight: *maxInflight,
		RatePerSec:  *rate,
		Burst:       *burst,
		Queue: serve.QueueConfig{
			MaxQueued:   *maxQueue,
			MaxAttempts: *retries,
			MaxTerminal: *retain,
		},
	}
	if !*noCache {
		cfg.CacheDir = *cacheDir
		if cfg.CacheDir == "" {
			cfg.CacheDir = filepath.Join(*dataDir, "cache")
		}
	}
	if *lint {
		cfg.AnalysisOptions = append(cfg.AnalysisOptions, firmres.WithLint())
	}

	srv, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "firmserve: %v\n", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "firmserve: %v\n", err)
		return 1
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "firmserve: addr-file: %v\n", err)
			ln.Close()
			return 1
		}
	}

	srv.Start()
	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "firmserve: listening on %s (data=%s cache=%s workers=%d)\n",
		bound, *dataDir, cfg.CacheDir, *maxInflight)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "firmserve: %v\n", err)
		return 1
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "firmserve: %v: draining (stop intake, finish inflight, journal the rest)\n", s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	_ = httpSrv.Shutdown(ctx) // stop intake; SSE streams end with their jobs
	if err := srv.Drain(ctx); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "firmserve: %v\n", err)
		// Queued and interrupted jobs are journaled; the next boot resumes
		// them, so a deadline overrun is an orderly exit, not data loss.
	}
	counts := srv.Queue().Counts()
	fmt.Fprintf(os.Stderr, "firmserve: drained: %d done, %d failed, %d journaled for next boot\n",
		counts.Done, counts.Failed, counts.Queued+counts.Running)
	return 0
}
