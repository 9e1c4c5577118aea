// Command benchd serves the paper's pipeline as a long-running daemon:
// POST a generation request — an app/scale selection or a raw scalatrace-go
// trace — and get back the executable coNCePTuaL/C benchmark together with
// the predicted per-rank virtual timing, the mpiP-style profile, and the
// causal critical-path profile of the predicting run.
//
// Usage:
//
//	benchd [-addr :8125] [-workers n] [-queue n]
//	       [-cache-dir dir] [-cache-entries n] [-cache-disk-entries n]
//	       [-job-history n] [-job-timeout 2m] [-drain-timeout 30s]
//	       [-serve addr]
//
// Endpoints:
//
//	POST /v1/jobs              submit a job (429 + Retry-After when saturated)
//	GET  /v1/jobs              list jobs
//	GET  /v1/jobs/{id}         job status and current pipeline stage
//	GET  /v1/jobs/{id}/result  the generated artifact (JSON)
//	GET  /v1/jobs/{id}/source  the generated source (text/plain)
//	GET  /v1/jobs/{id}/profile critical-path & wait-state profile (JSON)
//	DELETE /v1/jobs/{id}       cancel a queued or running job
//	POST /v1/generate          synchronous submit-and-wait
//	GET  /metrics              telemetry snapshot — JSON, or Prometheus text
//	                           under ?format=prom / Accept negotiation
//	GET  /timeline; /healthz
//
// -serve starts a second, loopback-friendly telemetry listener carrying
// /metrics and /debug/pprof, shut down gracefully inside the drain window.
//
// The daemon logs one structured JSON line per job lifecycle transition
// (submitted, running, done/failed/canceled) to stderr, carrying the job
// id, the canonical request hash, cache hit/miss, queue wait and run
// duration.
//
// Results are content-addressed: identical requests are served from the
// cache without recomputation. SIGINT/SIGTERM drains in-flight jobs before
// exiting; jobs still running when -drain-timeout expires are cancelled,
// which tears their simulated worlds down cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/telemetry"
)

func main() {
	var (
		addr         = flag.String("addr", ":8125", "listen address")
		workers      = flag.Int("workers", 0, "generation workers (default: GOMAXPROCS-derived)")
		queue        = flag.Int("queue", 0, "job queue depth (default: 4x workers)")
		cacheDir     = flag.String("cache-dir", "", "persistent result cache directory (empty: memory only)")
		cacheEntries = flag.Int("cache-entries", 64, "in-memory result cache entries")
		cacheDisk    = flag.Int("cache-disk-entries", 512, "on-disk result cache entries (oldest pruned first)")
		jobHistory   = flag.Int("job-history", 256, "finished jobs kept listable (oldest evicted first)")
		jobTimeout   = flag.Duration("job-timeout", 2*time.Minute, "per-job pipeline timeout, measured from dequeue")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown drain window")
		serveAddr    = flag.String("serve", "", "extra telemetry listener (/metrics + /debug/pprof) on `addr`")
	)
	flag.Parse()

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))

	// The daemon always runs with telemetry on: /metrics and /timeline are
	// part of its API.
	telemetry.Enable()

	srv, err := service.NewServer(service.Config{
		Workers:          *workers,
		QueueDepth:       *queue,
		CacheDir:         *cacheDir,
		CacheEntries:     *cacheEntries,
		CacheDiskEntries: *cacheDisk,
		JobHistory:       *jobHistory,
		JobTimeout:       *jobTimeout,
		Logger:           logger,
	})
	if err != nil {
		fatal(err)
	}

	var tsrv *telemetry.Server
	if *serveAddr != "" {
		tsrv, err = telemetry.Serve(*serveAddr)
		if err != nil {
			fatal(err)
		}
		logger.Info("telemetry listener up", "addr", tsrv.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// ReadTimeout bounds how long a client may take to deliver a (size-capped)
	// body. There is deliberately no WriteTimeout: the synchronous endpoints
	// hold the response open for queue time plus the job timeout.
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout: time.Minute}
	logger.Info("serving", "addr", ln.Addr().String())

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		logger.Info("draining in-flight jobs", "signal", sig.String(), "drain_timeout", drainTimeout.String())
	case err := <-errc:
		fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Warn("drain window expired, remaining jobs cancelled", "error", err.Error())
	}
	if err := hs.Shutdown(context.Background()); err != nil {
		logger.Warn("http shutdown", "error", err.Error())
	}
	// The telemetry listener drains inside what remains of the same window
	// rather than leaking past process exit.
	if tsrv != nil {
		if err := tsrv.Shutdown(ctx); err != nil {
			_ = tsrv.Close()
		}
	}
	logger.Info("stopped")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchd:", err)
	os.Exit(1)
}
