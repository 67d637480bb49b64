package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/pool"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/timeline"
)

// serverConfig tunes the HTTP front end's robustness behaviour.
type serverConfig struct {
	// logger receives one structured JSON line per request (method,
	// route, status, duration, request ID) and panic reports.  Nil
	// discards.  Create it with zero flags: every line is a complete
	// JSON object carrying its own timestamp.
	logger *log.Logger

	// requestTimeout bounds each request's handling via its context.
	// Zero means no per-request timeout.
	requestTimeout time.Duration

	// history, when non-nil, is the metrics-history ring behind GET
	// /v1/metrics/history (see telemetry.History).  Nil disables the
	// endpoint (404).
	history *telemetry.History
}

// server is the dlsimd HTTP front end over a runner pool.
type server struct {
	pool    *runner.Runner
	cfg     serverConfig
	started time.Time
	mux     *http.ServeMux

	// reg is the pool's telemetry registry; the server registers its
	// own HTTP instruments there too, so GET /metrics is one scrape
	// covering service and engine.
	reg          *telemetry.Registry
	httpRequests *telemetry.CounterVec
	httpLatency  *telemetry.Histogram
	faultHits    *telemetry.GaugeVec
	faultInject  *telemetry.GaugeVec
	faultArmed   *telemetry.Gauge

	// draining flips once shutdown starts: /readyz goes 503 and new
	// submissions are refused while in-flight jobs finish.
	draining atomic.Bool
}

// newServer wires the v1 API onto the pool and registers the HTTP
// instrument set in the pool's telemetry registry.
func newServer(pool *runner.Runner, cfg serverConfig) *server {
	if cfg.logger == nil {
		cfg.logger = log.New(io.Discard, "", 0)
	}
	reg := pool.Metrics()
	s := &server{
		pool:    pool,
		cfg:     cfg,
		started: time.Now(),
		mux:     http.NewServeMux(),
		reg:     reg,

		httpRequests: reg.CounterVec("dlsim_http_requests_total",
			"HTTP requests served, by route pattern, method and status code.",
			"route", "method", "code"),
		httpLatency: reg.Histogram("dlsim_http_request_ms",
			"HTTP request handling latency.",
			telemetry.ExponentialBuckets(0.25, 2, 16)),
		faultHits: reg.GaugeVec("dlsim_fault_point_hits",
			"Fire evaluations per armed fault-injection point.", "point"),
		faultInject: reg.GaugeVec("dlsim_fault_point_injections",
			"Faults delivered per armed fault-injection point.", "point"),
		faultArmed: reg.Gauge("dlsim_fault_points_armed",
			"Number of armed fault-injection points."),
	}
	started := s.started
	reg.GaugeFunc("dlsim_uptime_seconds", "Seconds since process start.",
		func() float64 { return time.Since(started).Seconds() })

	registerRuntimeGauges(reg)

	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/timeline", s.handleJobTimeline)
	s.mux.HandleFunc("POST /v1/batches", s.handleSubmitBatch)
	s.mux.HandleFunc("GET /v1/batches/{id}", s.handleBatch)
	s.mux.HandleFunc("GET /v1/traces/{id}", s.handleTrace)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/metrics/history", s.handleMetricsHistory)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	return s
}

// registerRuntimeGauges adds the process-level dashboard gauges:
// build identity (a constant-1 info gauge carrying version labels,
// the Prometheus idiom) and Go runtime health (goroutines, heap, live
// heap after the last GC, GC CPU time).  The memory and GC values come
// from runtime/metrics, which does not stop the world the way
// runtime.ReadMemStats does on every scrape and history tick.
func registerRuntimeGauges(reg *telemetry.Registry) {
	version := "devel"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		version = bi.Main.Version
	}
	reg.GaugeVec("dlsim_build_info",
		"Build identity; always 1, labelled with the module version and Go toolchain.",
		"version", "go_version").With(version, runtime.Version()).Set(1)
	reg.GaugeFunc("dlsim_go_goroutines", "Live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("dlsim_go_heap_bytes", "Heap bytes in use: live objects and dead ones not yet swept (/memory/classes/heap/objects:bytes).",
		runtimeMetric("/memory/classes/heap/objects:bytes"))
	reg.GaugeFunc("dlsim_go_heap_live_bytes", "Heap bytes the last GC marked live (/gc/heap/live:bytes).",
		runtimeMetric("/gc/heap/live:bytes"))
	reg.CounterFunc("dlsim_go_gc_cpu_seconds_total", "Estimated CPU time spent in GC (/cpu/classes/gc/total:cpu-seconds).",
		runtimeMetric("/cpu/classes/gc/total:cpu-seconds"))
}

// runtimeMetric returns a reader of one runtime/metrics value.
func runtimeMetric(name string) func() float64 {
	return func() float64 {
		s := []metrics.Sample{{Name: name}}
		metrics.Read(s)
		switch s[0].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[0].Value.Uint64())
		case metrics.KindFloat64:
			return s[0].Value.Float64()
		}
		return 0
	}
}

// startDrain stops admission: /readyz reports 503 (so load balancers
// route away) and new job submissions are refused while in-flight
// jobs keep running.
func (s *server) startDrain() { s.draining.Store(true) }

// drain is the shutdown sequence main runs on SIGINT/SIGTERM, short
// of stopping the listener: stop admission, let queued and running
// jobs finish until deadline, then flush the result store.  Every
// drained job's result was written through before its gauges dropped,
// and Drain returns after its batches' snapshots, so a clean drain
// plus the flush makes the whole run durable.  The caller's
// pool.Close comes last: it cancels the jobs the deadline abandoned
// once the store is closed, so none of them, and no partial snapshot
// of their batch, is stored.  drain returns the number of jobs and
// snapshots abandoned.
func (s *server) drain(deadline context.Context) int {
	s.startDrain()
	abandoned := s.pool.Drain(deadline)
	if abandoned > 0 {
		s.logJSON("drain deadline hit", map[string]any{"abandoned": abandoned})
	} else {
		s.logJSON("drained", nil)
	}
	if st := s.pool.Store(); st != nil {
		if err := st.Close(); err != nil {
			s.logJSON("store flush failed", map[string]any{"error": err.Error()})
		} else {
			s.logJSON("store flushed", map[string]any{"entries": st.Stats().Entries})
		}
	}
	return abandoned
}

// requestIDKey carries the request's correlation ID in its context.
type requestIDKey struct{}

// requestID returns the correlation ID minted (or honored) for this
// request, "" outside the middleware.
func requestID(r *http.Request) string {
	id, _ := r.Context().Value(requestIDKey{}).(string)
	return id
}

// reqSeq breaks ties if the random source ever fails.
var reqSeq atomic.Uint64

// newRequestID mints a fresh correlation ID: 8 random bytes, hex.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("req-%d-%d", time.Now().UnixNano(), reqSeq.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// route maps a request path to its bounded-cardinality route pattern
// for metric labels: path parameters are folded, unknown paths share
// one bucket.  Never label metrics with raw paths (see DESIGN.md §8).
func route(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasPrefix(p, "/v1/jobs/") && strings.HasSuffix(p, "/timeline"):
		return "/v1/jobs/{id}/timeline"
	case p == "/v1/metrics/history":
		return p
	case strings.HasPrefix(p, "/v1/jobs/"):
		return "/v1/jobs/{id}"
	case strings.HasPrefix(p, "/v1/batches/"):
		return "/v1/batches/{id}"
	case strings.HasPrefix(p, "/v1/traces/"):
		return "/v1/traces/{id}"
	case p == "/v1/jobs", p == "/v1/batches", p == "/v1/stats", p == "/metrics", p == "/healthz", p == "/readyz":
		return p
	default:
		return "other"
	}
}

// statusRecorder captures the status code written by a handler for
// the request log and metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// logJSON writes one structured log line: base fields plus kv pairs.
func (s *server) logJSON(msg string, kv map[string]any) {
	line := map[string]any{
		"time": time.Now().UTC().Format(time.RFC3339Nano),
		"msg":  msg,
	}
	for k, v := range kv {
		line[k] = v
	}
	b, err := json.Marshal(line)
	if err != nil {
		s.cfg.logger.Printf(`{"msg":"logging error","error":%q}`, err.Error())
		return
	}
	s.cfg.logger.Printf("%s", b)
}

// ServeHTTP assigns every request a correlation ID (honoring an
// incoming X-Request-ID and echoing it back), applies the per-request
// timeout, records HTTP metrics, emits one structured JSON log line
// per request, and converts handler panics into structured 500s so
// one bad request cannot take out the connection without a response.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	if s.cfg.requestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.requestTimeout)
		defer cancel()
	}
	reqID := r.Header.Get("X-Request-ID")
	if reqID == "" {
		reqID = newRequestID()
	}
	ctx = context.WithValue(ctx, requestIDKey{}, reqID)
	r = r.WithContext(ctx)
	w.Header().Set("X-Request-ID", reqID)

	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	defer func() {
		if v := recover(); v != nil {
			s.logJSON("panic", map[string]any{
				"method": r.Method, "path": r.URL.Path, "request_id": reqID,
				"panic": fmt.Sprint(v),
			})
			// Best effort: if the handler had not written yet this
			// produces a well-formed JSON 500.
			writeError(rec, r, http.StatusInternalServerError, "internal error: %v", v)
		}
		dur := time.Since(start)
		s.httpRequests.With(route(r), r.Method, strconv.Itoa(rec.status)).Inc()
		s.httpLatency.Observe(float64(dur) / 1e6)
		s.logJSON("request", map[string]any{
			"method": r.Method, "path": r.URL.Path, "status": rec.status,
			"dur_ms": float64(dur.Round(time.Microsecond)) / 1e6, "request_id": reqID,
		})
	}()
	s.mux.ServeHTTP(rec, r)
}

// writeJSON renders v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// errorJSON is the error envelope of every non-2xx response: a
// human-readable message, the machine-readable status code, and the
// request's correlation ID so a 429 or 500 can be matched to its log
// line.
type errorJSON struct {
	Error     string `json:"error"`
	Code      int    `json:"code"`
	RequestID string `json:"request_id,omitempty"`
}

func writeError(w http.ResponseWriter, r *http.Request, status int, format string, args ...any) {
	writeJSON(w, status, errorJSON{
		Error:     fmt.Sprintf(format, args...),
		Code:      status,
		RequestID: requestID(r),
	})
}

// retryAfterSeconds is the Retry-After hint, in whole seconds, on a
// 429 from admission shedding: the one response a client should
// repeat later.
const retryAfterSeconds = "1"

// notHeld answers a GET for an ID this node holds nothing for: an ID
// the retention bounds dropped recently answers 410 Gone
// (resubmitting recomputes it) and any other ID 404.  kind is "job"
// or "batch"; a timeline lookup answers for its job.
func (s *server) notHeld(w http.ResponseWriter, r *http.Request, kind, id string) {
	dropped := "the result cache; resubmit its spec"
	if kind == "batch" {
		dropped = "batch retention; resubmit its sweep"
	}
	if s.pool.Evicted(id) {
		writeError(w, r, http.StatusGone, "%s %q evicted from %s to recompute", kind, id, dropped)
		return
	}
	writeError(w, r, http.StatusNotFound, "no %s %q", kind, id)
}

// admit runs the steps every submission shares before its spec is
// looked at: the draining 503, the dlsimd.submit fault point, and a
// strict decode of the body into spec ("invalid <kind> spec" on
// failure).  It reports false once it has answered the client.
func (s *server) admit(w http.ResponseWriter, r *http.Request, kind string, spec any) bool {
	if s.draining.Load() {
		writeError(w, r, http.StatusServiceUnavailable, "draining: not accepting new jobs")
		return false
	}
	if err := faultinject.FireCtx(r.Context(), "dlsimd.submit"); err != nil {
		writeError(w, r, http.StatusInternalServerError, "%v", err)
		return false
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(spec); err != nil {
		writeError(w, r, http.StatusBadRequest, "invalid %s spec: %v", kind, err)
		return false
	}
	return true
}

// answerSubmit answers a local submission: the runner's refusal mapped
// to its status (429 + Retry-After when admission control sheds, 503
// after shutdown, 400 for anything else, such as a bad spec), or the
// response resp builds, with 202 for new work and 200 when the
// submission reused known work.
func (s *server) answerSubmit(w http.ResponseWriter, r *http.Request, err error, reused bool, resp func() any) {
	switch {
	case errors.Is(err, runner.ErrQueueFull):
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeError(w, r, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, runner.ErrRunnerClosed):
		writeError(w, r, http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		writeError(w, r, http.StatusBadRequest, "%v", err)
	case reused:
		writeJSON(w, http.StatusOK, resp())
	default:
		writeJSON(w, http.StatusAccepted, resp())
	}
}

// submitResponse answers POST /v1/jobs.
type submitResponse struct {
	ID     string          `json:"id"`
	Key    string          `json:"key"`
	State  runner.JobState `json:"state"`
	Cached bool            `json:"cached"`
	Spec   runner.JobSpec  `json:"spec"`
}

// handleSubmit validates and enqueues a job, returning its ID for
// polling.  Submitting an already-known spec is idempotent: the
// existing job's ID comes back with cached=true.  Failure paths:
// 400 for a bad spec, 429 (+ Retry-After) when admission control
// sheds, 503 while draining or after shutdown.
func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec runner.JobSpec
	if !s.admit(w, r, "job", &spec) {
		return
	}
	job, reused, err := s.pool.Submit(spec)
	s.answerSubmit(w, r, err, reused, func() any {
		return submitResponse{ID: job.ID, Key: job.Key, State: job.State(), Cached: reused, Spec: job.Spec}
	})
}

// batchSubmitResponse answers POST /v1/batches.
type batchSubmitResponse struct {
	ID     string           `json:"id"`
	Total  int              `json:"total"`
	Cached bool             `json:"cached"`
	Specs  []runner.JobSpec `json:"specs"`
}

// handleSubmitBatch validates and enqueues a sweep as one batch of
// deduplicated jobs.  The batch ID is content-derived, so
// resubmitting an identical sweep returns the existing batch (200)
// instead of enqueueing anything; job-level dedup against prior
// non-batch traffic applies regardless.
func (s *server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	var sweep runner.SweepSpec
	if !s.admit(w, r, "sweep", &sweep) {
		return
	}
	batch, reused, err := s.pool.SubmitBatch(sweep)
	s.answerSubmit(w, r, err, reused, func() any {
		return batchSubmitResponse{ID: batch.ID, Total: len(batch.Specs), Cached: reused, Specs: batch.Specs}
	})
}

// handleBatch reports a batch's progress, per-job states (with each
// failure's error) and per-config aggregates.  Completed batches
// survive retention eviction and restarts via the disk store; a
// batch ID recently dropped from retention (and absent from the
// store) answers 410 Gone like an evicted job, and IDs never seen —
// or forgotten by the bounded evicted-ID memory — answer 404.  The
// underlying jobs remain individually addressable via /v1/jobs/{id}.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	batch, ok := s.pool.Batch(id)
	if !ok {
		s.notHeld(w, r, "batch", id)
		return
	}
	writeJSON(w, http.StatusOK, batch.Status())
}

// classJSON summarises one request class's latency sample.
type classJSON struct {
	N      int     `json:"n"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P95US  float64 `json:"p95_us"`
	P99US  float64 `json:"p99_us"`
}

// resultJSON is the wire form of a completed job's Result.
type resultJSON struct {
	WallMS    float64 `json:"wall_ms"`
	SetupMS   float64 `json:"setup_ms"`
	MeasureMS float64 `json:"measure_ms"`
	CacheHit  bool    `json:"cache_hit"`

	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`
	TrampInstrs  uint64 `json:"tramp_instrs"`
	TrampCalls   uint64 `json:"tramp_calls"`
	TrampSkips   uint64 `json:"tramp_skips"`
	Resolutions  uint64 `json:"resolutions"`

	PKI struct {
		TrampInstrs float64 `json:"tramp_instrs"`
		L1IMisses   float64 `json:"l1i_misses"`
		ITLBMisses  float64 `json:"itlb_misses"`
		L1DMisses   float64 `json:"l1d_misses"`
		DTLBMisses  float64 `json:"dtlb_misses"`
		Mispredicts float64 `json:"mispredicts"`
	} `json:"pki"`

	DistinctTrampolines int    `json:"distinct_trampolines"`
	LibCalls            uint64 `json:"lib_calls"`

	Classes map[string]classJSON `json:"classes"`

	// Sampled carries the mean ± ci95 interval estimates of a job run
	// with sample_windows > 0; nil (omitted) on exact jobs.  For such
	// jobs Instructions/Cycles/PKI above cover only the measured
	// window excerpts, not the fast-forwarded stretches between them.
	Sampled *runner.SampledResult `json:"sampled,omitempty"`
}

// jobResponse answers GET /v1/jobs/{id}.
type jobResponse struct {
	ID     string          `json:"id"`
	Key    string          `json:"key"`
	State  runner.JobState `json:"state"`
	Spec   runner.JobSpec  `json:"spec"`
	Error  string          `json:"error,omitempty"`
	Result *resultJSON     `json:"result,omitempty"`
}

// handleJob reports a job's state and, once done, its result.  IDs
// recently dropped by the result cache's retention bound answer 410
// Gone (resubmitting the spec recomputes them); IDs the runner has
// never seen — or evicted so long ago that the bounded evicted-ID
// memory forgot them — answer 404.
func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// pool.Job reads through the store, so a miss here is final.
	job, ok := s.pool.Job(id)
	if !ok {
		s.notHeld(w, r, "job", id)
		return
	}
	resp := jobResponse{
		ID:    job.ID,
		Key:   job.Key,
		State: job.State(),
		Spec:  job.Spec,
	}
	if err := job.Err(); err != nil {
		resp.Error = err.Error()
	} else if res, ok := job.Result(); ok {
		resp.Result = marshalResult(res)
	}
	writeJSON(w, http.StatusOK, resp)
}

// timelineResponse answers GET /v1/jobs/{id}/timeline in JSON form.
type timelineResponse struct {
	ID     string           `json:"id"`
	Series *timeline.Series `json:"series"`
}

// wantCSV reports whether the client asked for CSV, via ?format=csv
// or an Accept: text/csv header.
func wantCSV(r *http.Request) bool {
	if r.URL.Query().Get("format") == "csv" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "text/csv")
}

// handleJobTimeline serves a completed job's phase-resolved counter
// series (JSON by default, CSV via Accept/?format=csv).  Jobs that
// ran with timelines disabled, jobs still in flight, and series
// records lost to crash recovery answer 404 while the result itself
// stays servable.
func (s *server) handleJobTimeline(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	series, ok := s.pool.Timeline(id)
	if !ok {
		// A job known here says why it has none.
		job, _ := s.pool.Job(id)
		switch {
		case job == nil:
			s.notHeld(w, r, "job", id)
		case job.State() == runner.StateQueued || job.State() == runner.StateRunning:
			writeError(w, r, http.StatusNotFound,
				"job %q has no timeline yet (state %s); poll /v1/jobs/%s until done", id, job.State(), id)
		case job.Spec.TimelineOff:
			writeError(w, r, http.StatusNotFound,
				"job %q ran with timelines disabled (timeline_off); resubmit without it to collect one", id)
		default:
			writeError(w, r, http.StatusNotFound,
				"no timeline for job %q (failed job, or its series record did not survive)", id)
		}
		return
	}
	if wantCSV(r) {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		_ = timeline.WriteCSV(w, series)
		return
	}
	writeJSON(w, http.StatusOK, timelineResponse{ID: id, Series: series})
}

// historyIndexResponse answers GET /v1/metrics/history without a
// name: the queryable series names plus ring geometry.
type historyIndexResponse struct {
	IntervalS float64  `json:"interval_s"`
	Samples   int      `json:"samples"`
	Names     []string `json:"names"`
}

// historySeriesResponse answers GET /v1/metrics/history?name=...
type historySeriesResponse struct {
	Name      string                   `json:"name"`
	IntervalS float64                  `json:"interval_s"`
	Points    []telemetry.HistoryPoint `json:"points"`
}

// handleMetricsHistory serves the metrics-history ring: without
// ?name= it lists the queryable series, with it it returns that
// series' (time, value) points — optionally bounded to the last
// ?minutes=N.  Series names are exactly the exposition names GET
// /metrics prints (histograms appear as name_count / name_sum), so a
// dashboard can go from a scrape to a short-horizon chart with no
// external time-series store.
func (s *server) handleMetricsHistory(w http.ResponseWriter, r *http.Request) {
	h := s.cfg.history
	if h == nil {
		writeError(w, r, http.StatusNotFound, "metrics history disabled (-metrics-history 0)")
		return
	}
	q := r.URL.Query()
	var since time.Time
	if m := q.Get("minutes"); m != "" {
		f, err := strconv.ParseFloat(m, 64)
		if err != nil || f <= 0 {
			writeError(w, r, http.StatusBadRequest, "invalid minutes %q (want a positive number)", m)
			return
		}
		since = time.Now().Add(-time.Duration(f * float64(time.Minute)))
	}
	name := q.Get("name")
	if name == "" {
		writeJSON(w, http.StatusOK, historyIndexResponse{
			IntervalS: h.Interval().Seconds(),
			Samples:   h.Len(),
			Names:     h.Names(),
		})
		return
	}
	writeJSON(w, http.StatusOK, historySeriesResponse{
		Name:      name,
		IntervalS: h.Interval().Seconds(),
		Points:    h.Query(name, since),
	})
}

// handleTrace serves a job's phase breakdown as a JSON span tree.
// The trace shares the job's ID, so clients poll /v1/jobs/{id} and
// fetch /v1/traces/{id} with the same handle.  Traces live in a
// bounded ring, so very old jobs may have been evicted (410 would
// overpromise: we just 404).
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tracer := s.pool.Tracer()
	if tracer == nil {
		writeError(w, r, http.StatusNotFound, "tracing disabled")
		return
	}
	tr, ok := tracer.Get(id)
	if !ok {
		writeError(w, r, http.StatusNotFound, "no trace %q (unknown job or evicted from the ring)", id)
		return
	}
	writeJSON(w, http.StatusOK, tr.Snapshot())
}

// handleMetrics serves the whole registry — runner pool, per-workload
// simulation counters, HTTP front end, fault-injection points — in
// Prometheus text exposition format.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.syncFaultGauges()
	w.Header().Set("Content-Type", telemetry.TextContentType)
	_ = s.reg.WritePrometheus(w)
}

// syncFaultGauges copies faultinject's per-point counters into the
// registry at scrape time (pull model: faultinject stays free of any
// telemetry dependency).
func (s *server) syncFaultGauges() {
	snap := faultinject.Snapshot()
	s.faultArmed.Set(int64(len(snap)))
	for name, ps := range snap {
		s.faultHits.With(name).Set(int64(ps.Hits))
		s.faultInject.With(name).Set(int64(ps.Injected))
	}
}

// marshalResult flattens a Result into its wire form.  The cached
// Result's samples are pre-sorted and immutable, so percentile reads
// here are safe under concurrent requests.
func marshalResult(res *runner.Result) *resultJSON {
	out := &resultJSON{
		WallMS:              float64(res.Wall) / float64(time.Millisecond),
		SetupMS:             float64(res.SetupWall) / float64(time.Millisecond),
		MeasureMS:           float64(res.MeasureWall) / float64(time.Millisecond),
		CacheHit:            res.CacheHit,
		Instructions:        res.Counters.Instructions,
		Cycles:              res.Counters.Cycles,
		TrampInstrs:         res.Counters.TrampInstrs,
		TrampCalls:          res.Counters.TrampCalls,
		TrampSkips:          res.Counters.TrampSkips,
		Resolutions:         res.Counters.Resolutions,
		DistinctTrampolines: res.DistinctTrampolines(),
		LibCalls:            res.LibCalls(),
		Classes:             make(map[string]classJSON, len(res.Samples)),
		Sampled:             res.Sampled,
	}
	out.PKI.TrampInstrs = res.PKI.TrampInstrs
	out.PKI.L1IMisses = res.PKI.L1IMisses
	out.PKI.ITLBMisses = res.PKI.ITLBMisses
	out.PKI.L1DMisses = res.PKI.L1DMisses
	out.PKI.DTLBMisses = res.PKI.DTLBMisses
	out.PKI.Mispredicts = res.PKI.Mispredicts
	for class, sample := range res.Samples {
		out.Classes[class] = summariseClass(sample)
	}
	return out
}

func summariseClass(s *stats.Sample) classJSON {
	return classJSON{
		N:      s.N(),
		MeanUS: s.Mean(),
		P50US:  s.Percentile(50),
		P95US:  s.Percentile(95),
		P99US:  s.Percentile(99),
	}
}

// storeStatsJSON is the store tier's row in /v1/stats: the raw
// store.Stats plus the derived hit rate, so operators read both cache
// tiers from one response.
type storeStatsJSON struct {
	store.Stats
	HitRate float64 `json:"hit_rate"`
}

// statsResponse answers GET /v1/stats.
type statsResponse struct {
	runner.Stats
	UptimeS   float64             `json:"uptime_s"`
	Draining  bool                `json:"draining"`
	Workloads []string            `json:"workloads"`
	Configs   []runner.ConfigKind `json:"configs"`

	// ArtifactPool is the artifact pool's gauge set (workload/image
	// hits, resident bytes); Store the disk tier's (entries,
	// segments, bytes, hit rate).  Each is omitted when its tier is
	// disabled.
	ArtifactPool *pool.Stats     `json:"pool,omitempty"`
	Store        *storeStatsJSON `json:"store,omitempty"`
}

// handleStats reports pool depth, cache effectiveness, failure, panic
// and shed counters, job latency, and the artifact-pool and disk-store
// gauges.  The numbers come from the same telemetry registry GET
// /metrics exposes — runner.Stats() is a typed view over those
// instruments, kept for API compatibility.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{
		Stats:     s.pool.Stats(),
		UptimeS:   time.Since(s.started).Seconds(),
		Draining:  s.draining.Load(),
		Workloads: runner.WorkloadNames(),
		Configs:   runner.ConfigKinds(),
	}
	if ap := s.pool.ArtifactPool(); ap != nil {
		ps := ap.Stats()
		resp.ArtifactPool = &ps
	}
	if st := s.pool.Store(); st != nil {
		ss := storeStatsJSON{Stats: st.Stats()}
		if n := ss.Hits + ss.Misses; n > 0 {
			ss.HitRate = float64(ss.Hits) / float64(n)
		}
		resp.Store = &ss
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz is liveness: 200 whenever the process can serve at
// all (restart the process if this fails).
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: 200 while accepting new jobs, 503 once
// draining — load balancers should stop routing here, but in-flight
// jobs are still being finished and polled.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, r, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}
