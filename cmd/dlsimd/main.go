// Command dlsimd is a long-running simulation service: an HTTP JSON
// front end over the internal/runner job engine.  Clients submit
// simulation jobs (workload × config × seed), poll for typed results,
// and read pool/cache statistics; identical submissions are coalesced
// and served from the content-addressed result cache, so each
// distinct simulation runs at most once per process lifetime.
//
// The service is hardened for unattended operation: worker panics
// fail only the offending job (with the stack recorded), a job runs
// once and its failure is final and cached (a job is a pure function
// of its spec, so re-running it cannot help), a bounded admission
// queue sheds overload with 429 + Retry-After, and SIGINT/SIGTERM
// triggers a graceful drain — admission stops (/readyz goes 503),
// in-flight jobs finish up to -drain-timeout, and whatever remains is
// reported before exit.  Fault injection for
// testing is available via DLSIM_FAULTS (see internal/faultinject).
//
// The service is fully observable: every request carries a
// correlation ID (honoring an incoming X-Request-ID), request logs
// are structured JSON lines on stderr, GET /metrics exposes the
// runner/cache/simulation/HTTP instrument set in Prometheus text
// format, GET /v1/traces/{id} returns a job's phase-by-phase span
// tree, and -debug-addr starts an opt-in net/http/pprof listener on
// a separate port (never on the public address).
//
// Usage:
//
//	dlsimd [-addr :8344] [-workers N] [-job-timeout 5m] [-max-queue N]
//	       [-max-retained N] [-max-batches N] [-request-timeout 30s]
//	       [-drain-timeout 30s] [-trace-buffer N] [-debug-addr :8345]
//	       [-store-dir DIR] [-store-max-bytes N]
//	       [-metrics-history 5s] [-metrics-history-points N]
//
// With -store-dir set, every completed result (and every completed
// batch's aggregate snapshot) is written through to a disk-backed
// content-addressed store (see internal/store): LRU eviction demotes
// results to disk instead of dropping them, lookups and submissions
// fall back to the store before recomputing, and a restarted process
// pointed at the same directory warm-starts — previously completed
// job IDs are served from disk with bit-identical counters.  The
// graceful-drain path flushes the store before exit, and 410 Gone is
// reserved for entries truly dropped (store disabled, failed jobs, or
// size-bound compaction victims).  A node recovers its work by
// restarting over the same store directory: a sweep the drain
// deadline cut short is resubmitted, and its finished jobs are
// restored rather than recomputed (see DESIGN.md §12).
//
// API:
//
//	POST /v1/jobs        submit a job; body {"workload":"apache",
//	                     "config":"enhanced","seed":1,"scale":0.5};
//	                     returns the job id (202, or 200 when coalesced;
//	                     429 + Retry-After when the queue is full)
//	GET  /v1/jobs/{id}   job state, and the result once done (or the
//	                     error once failed)
//	                     (410 once the id is evicted by -max-retained;
//	                     404 for ids never seen or long forgotten)
//	POST /v1/batches     submit a sweep; body {"workload":"apache",
//	                     "configs":["base","enhanced"],"seeds":[1,2,3],
//	                     "scale":0.5}; expands to one deduplicated job
//	                     per (config, seed) cell — artifact-pool-backed,
//	                     so each workload generates once per seed and
//	                     each link product links once — and returns the
//	                     content-derived batch id (202, or 200 when the
//	                     identical sweep is already known)
//	GET  /v1/batches/{id} batch progress (total/queued/running/done/
//	                     failed), per-job states with each failed job's
//	                     error (partial failure is reported, not
//	                     hidden), and per-config aggregates over
//	                     completed jobs
//	GET  /v1/jobs/{id}/timeline  the job's phase-resolved counter
//	                     timeline: per-interval deltas of every
//	                     microarchitectural counter sampled during the
//	                     measure window (JSON, or CSV via ?format=csv /
//	                     Accept: text/csv)
//	GET  /v1/traces/{id} the job's span tree: queued and attempt
//	                     phases with generate/link/warmup/measure steps
//	GET  /v1/stats       pool depth, cache hits/misses, failed/panics/
//	                     shed counters, job latency, and the artifact-
//	                     pool and store tiers' gauges
//	GET  /v1/metrics/history  short-horizon time series of every scalar
//	                     instrument, snapshotted every -metrics-history
//	                     period into a bounded ring
//	GET  /metrics        Prometheus text exposition of all instruments
//	GET  /healthz        liveness (200 while the process serves)
//	GET  /readyz         readiness (503 once draining)
//
// All failure responses are structured JSON:
// {"error": "...", "code": N, "request_id": "..."}.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/runner"
	"repro/internal/store"
	"repro/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8344", "listen address")
	workers := flag.Int("workers", 0, "worker pool size (0 = NumCPU)")
	jobTimeout := flag.Duration("job-timeout", 5*time.Minute, "per-job simulation timeout (0 = none)")
	maxQueue := flag.Int("max-queue", 256, "admission-queue bound; full queue sheds with 429 (0 = unbounded)")
	maxRetained := flag.Int("max-retained", 0, "completed jobs retained in the result cache; LRU-evicted beyond this, evicted IDs answer 410 (0 = default 4096, negative = unbounded)")
	maxBatches := flag.Int("max-batches", 0, "batch handles retained for lookup by ID; LRU-evicted beyond this, jobs stay addressable (0 = default 256, negative = unbounded)")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second, "per-HTTP-request timeout (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight jobs")
	traceBuffer := flag.Int("trace-buffer", 0, "recent job traces to retain (0 = default 512, negative disables tracing)")
	debugAddr := flag.String("debug-addr", "", "optional net/http/pprof listen address (e.g. :8345); empty disables")
	storeDir := flag.String("store-dir", "", "directory for the disk-backed result store; completed results persist there and warm-start the next process (empty disables persistence)")
	storeMaxBytes := flag.Int64("store-max-bytes", 0, "on-disk size bound of the result store; exceeding it compacts and drops the oldest entries (0 = default 256 MiB, negative = unbounded)")
	historyInterval := flag.Duration("metrics-history", telemetry.DefaultHistoryInterval, "metrics-history snapshot period behind GET /v1/metrics/history (0 disables the ring)")
	historyPoints := flag.Int("metrics-history-points", 0, "metrics-history ring capacity in snapshots (0 = default 720: one hour at the default period)")
	flag.Parse()

	// Zero flags: every line the server emits is a self-contained JSON
	// object carrying its own timestamp.
	logger := log.New(os.Stderr, "", 0)

	// The registry and trace ring are shared between the store and
	// the runner so GET /metrics is one scrape over both tiers and
	// the store's open/replay span is addressable at
	// /v1/traces/store-open like any job trace.
	reg := telemetry.NewRegistry()
	var tracer *telemetry.Tracer
	if *traceBuffer >= 0 {
		tracer = telemetry.NewTracer(*traceBuffer)
	}
	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, store.Options{
			MaxBytes: *storeMaxBytes,
			Metrics:  reg,
			Tracer:   tracer,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "dlsimd:", err)
			os.Exit(1)
		}
		defer st.Close()
		ss := st.Stats()
		fmt.Printf("dlsimd: result store %s (%d entries, %d segments, %d bytes, %d torn records recovered)\n",
			*storeDir, ss.Entries, ss.Segments, ss.Bytes, ss.TornRecovered)
	}

	pool := runner.New(runner.Options{
		Workers:       *workers,
		JobTimeout:    *jobTimeout,
		MaxQueue:      *maxQueue,
		MaxRetained:   *maxRetained,
		MaxBatches:    *maxBatches,
		TraceCapacity: *traceBuffer,
		Metrics:       reg,
		Tracer:        tracer,
		Store:         st,
	})
	defer pool.Close()

	var hist *telemetry.History
	if *historyInterval > 0 {
		hist = telemetry.NewHistory(reg, *historyPoints, *historyInterval)
		hist.Start()
		defer hist.Close()
	}

	api := newServer(pool, serverConfig{
		logger:         logger,
		requestTimeout: *requestTimeout,
		history:        hist,
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api,
		ReadHeaderTimeout: 10 * time.Second,
	}

	if *debugAddr != "" {
		// pprof goes on its own mux and listener so profiling endpoints
		// are never reachable through the public API address.
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			dbgSrv := &http.Server{
				Addr:              *debugAddr,
				Handler:           dbg,
				ReadHeaderTimeout: 10 * time.Second,
			}
			api.logJSON("pprof", map[string]any{"addr": *debugAddr})
			if err := dbgSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				api.logJSON("pprof listener failed", map[string]any{"error": err.Error()})
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		api.logJSON("shutdown", map[string]any{"drain_timeout": drainTimeout.String()})
		deadline, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		// Drain and flush, then stop the HTTP listener within the
		// same budget.  The deferred pool.Close cancels whatever the
		// deadline abandoned once the store is already closed.
		api.drain(deadline)
		_ = srv.Shutdown(deadline)
	}()

	fmt.Printf("dlsimd: serving on %s (workers=%d, max-queue=%d)\n", *addr, pool.Workers(), *maxQueue)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "dlsimd:", err)
		os.Exit(1)
	}
}
