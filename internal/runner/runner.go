package runner

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/faultinject"
	"repro/internal/pool"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/timeline"
	"repro/internal/workload"
)

// Options configures a Runner.
type Options struct {
	// Workers is the maximum number of jobs simulating concurrently.
	// Zero means runtime.NumCPU().
	Workers int

	// JobTimeout bounds each job's simulation time.  Zero means no
	// per-job timeout.
	JobTimeout time.Duration

	// MaxQueue bounds the number of jobs waiting for a worker
	// (admission control): once reached, Submit sheds new work with
	// ErrQueueFull instead of queueing unboundedly.  Cache hits and
	// in-flight coalescing are still served when the queue is full.
	// Zero or negative means unbounded.
	MaxQueue int

	// MaxRetained bounds the number of *completed* jobs (done or
	// failed) retained in the result cache.  Once exceeded, the least
	// recently used completed job is dropped from both lookup maps, so
	// a long-lived runner's memory stays proportional to the bound
	// rather than to its submission history.  Queued and running jobs
	// are pinned: they are never evicted, and do not count against the
	// bound until they finish.  A cache hit refreshes a job's recency.
	// Zero means DefaultMaxRetained; negative means unbounded
	// retention (the pre-bound behaviour).
	MaxRetained int

	// Metrics is the telemetry registry the runner registers its
	// instruments in (see metrics.go for the name catalogue).  Nil
	// means a private registry — reachable via Runner.Metrics() — so
	// every Runner is always instrumented and Stats() always has a
	// single source of truth.
	Metrics *telemetry.Registry

	// TraceCapacity sizes the ring buffer of retained per-job traces.
	// Zero means telemetry.DefaultTraceCapacity; negative disables
	// tracing entirely (spans become nil no-ops).
	TraceCapacity int

	// Tracer, when set, is used instead of building a private ring
	// from TraceCapacity — pass one to share a trace ring with other
	// components (dlsimd shares it with the store's open/replay
	// trace).
	Tracer *telemetry.Tracer

	// Store is the disk-backed second tier below the in-memory result
	// cache (see internal/store).  When set, every completed result
	// is written through to it, LRU eviction demotes instead of
	// deletes (the entry stays servable from disk), and Submit /
	// Job / Batch lookups fall back to it before recomputing — which
	// is what lets a restarted process warm-start from a prior run's
	// results.  Nil disables persistence.  The runner registers
	// itself as the store's drop observer so entries dropped by store
	// compaction keep answering 410 Gone.
	Store *store.Store

	// Pool is the shared artifact pool jobs draw generated workloads
	// and copy-on-write-forked images from.  Nil means a private pool
	// registered on the runner's metrics registry and bounded at
	// pool.BundlesPerWorker bundles per worker; pass one explicitly to
	// share artifacts across runners.  Pooling never changes results —
	// a forked image is bit-identical to a fresh link (see
	// internal/pool) — it only skips redundant setup work.
	Pool *pool.Pool

	// DisablePool turns artifact pooling off: every job generates and
	// links from scratch, the pre-pool behaviour.  It is the unpooled
	// oracle of the bit-identity tests (pool_integration_test.go,
	// churn_test.go, sampled_test.go): pooled results must match it
	// exactly.  Pool is ignored when set.
	DisablePool bool

	// MaxBatches bounds how many batch handles are retained for
	// lookup by ID (least recently used dropped beyond it).  Zero
	// means DefaultMaxBatches; negative means unbounded.
	MaxBatches int
}

// JobState is a job's lifecycle position.
type JobState string

// Job lifecycle states.
const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
)

// Job is a handle on one submitted (possibly shared) simulation.
type Job struct {
	// ID is the short content-derived identifier; Spec the normalized
	// spec; Key the canonical content-address.
	ID   string
	Key  string
	Spec JobSpec

	done chan struct{}

	// span is the job's root trace span ("job"); nil when tracing is
	// disabled.  Set once at Submit, before drive starts.
	span *telemetry.Span

	mu     sync.Mutex
	state  JobState
	result *Result
	err    error
}

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns a channel closed when the job completes or fails.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the job's result once it completed successfully.
// The boolean is false while the job is queued or running, and for
// failed jobs — check Err for those.
func (j *Job) Result() (*Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, false
	}
	return j.result, true
}

// Err returns the job's failure, nil while the job is still in
// flight or once it succeeded.  Failures wrap the sentinels
// (ErrRunnerClosed, ErrJobTimeout) and recovered panics surface as
// *PanicError with the captured stack.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Wait blocks until the job completes, the context is cancelled, or
// the runner shuts down, and returns a copy of the job's Result with
// CacheHit reflecting whether this submission reused prior work.
func (j *Job) Wait(ctx context.Context) (Result, error) {
	select {
	case <-ctx.Done():
		return Result{}, ctx.Err()
	case <-j.done:
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return Result{}, j.err
	}
	return *j.result, nil
}

// record stores the job's outcome, after which it reads as completed.
// Waiters are woken separately (see Runner.finish).
func (j *Job) record(res *Result, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err != nil {
		j.state, j.err = StateFailed, err
	} else {
		j.state, j.result = StateDone, res
	}
}

// Runner executes simulation jobs on a bounded worker pool with a
// content-addressed result cache.  Each distinct job (by JobSpec.Key)
// simulates exactly once, even under concurrent submission: the first
// submitter creates the job, later submitters attach to it
// (singleflight) or read its cached result.  A job is a pure function
// of its spec, so that one execution is final: a failed job stays
// failed, and resubmitting its spec reads the cached failure.  Jobs
// start in the order they were admitted.  Runner is safe for
// concurrent use.
type Runner struct {
	opts Options

	// rootCtx cancels every in-flight job on Close.
	rootCtx context.Context
	cancel  context.CancelFunc

	// sem bounds concurrent simulation.  Each admitted job adds one
	// goroutine waiting on it, which then runs the job at the front of
	// the queue.
	sem chan struct{}

	// m holds every operational counter on a telemetry registry — the
	// single source of truth behind Stats(), /v1/stats and /metrics.
	// tracer retains recent per-job span trees (nil = disabled).
	m      *metrics
	tracer *telemetry.Tracer

	// pool serves generated workloads and COW-forked images to
	// execute; nil when Options.DisablePool is set.
	pool *pool.Pool

	// store is the disk-backed result tier; nil disables persistence.
	store *store.Store

	mu     sync.Mutex
	byKey  map[string]*Job
	byID   map[string]*Job
	closed bool

	// queue holds the admitted jobs no worker has taken yet, in
	// admission order (guarded by mu).
	queue []queuedJob

	// Completed-job retention (guarded by mu): lru orders completed
	// jobs from least (front) to most (back) recently used; lruElem
	// maps job ID to its list element.  In-flight jobs appear in
	// neither, which is what pins them.  evicted remembers recently
	// evicted job IDs (a bounded FIFO ring) so the HTTP layer can
	// answer "gone" rather than "never existed".
	maxRetained int
	lru         *list.List
	lruElem     map[string]*list.Element
	evicted     map[string]struct{}
	evictRing   []string
	evictHead   int

	// Batch retention (guarded by mu): batches indexes retained batch
	// handles by content-derived ID, LRU-bounded by maxBatches.
	maxBatches int
	batches    map[string]*Batch
	batchLRU   *list.List
	batchElem  map[string]*list.Element

	// snapshots counts batch snapshots not yet written to the store
	// (see persistBatch).  It only grows under mu while closed is
	// false, so once Drain closes the runner it can only fall.
	snapshots atomic.Int64
}

// DefaultMaxRetained is the completed-job retention bound applied when
// Options.MaxRetained is zero.
const DefaultMaxRetained = 4096

// evictedMemory returns the capacity of the evicted-ID ring: enough to
// answer "gone" for several cache generations without itself becoming
// an unbounded map.
func evictedMemory(maxRetained int) int {
	n := 4 * maxRetained
	if n < 256 {
		n = 256
	}
	if n > 16384 {
		n = 16384
	}
	return n
}

// New returns a Runner with the given options.
func New(opts Options) *Runner {
	if opts.Workers <= 0 {
		opts.Workers = runtime.NumCPU()
	}
	ctx, cancel := context.WithCancel(context.Background())
	tracer := opts.Tracer
	if tracer == nil && opts.TraceCapacity >= 0 {
		tracer = telemetry.NewTracer(opts.TraceCapacity)
	}
	maxRetained := opts.MaxRetained
	if maxRetained == 0 {
		maxRetained = DefaultMaxRetained
	}
	maxBatches := opts.MaxBatches
	if maxBatches == 0 {
		maxBatches = DefaultMaxBatches
	}
	r := &Runner{
		opts:        opts,
		rootCtx:     ctx,
		cancel:      cancel,
		sem:         make(chan struct{}, opts.Workers),
		m:           newMetrics(opts.Metrics),
		tracer:      tracer,
		byKey:       make(map[string]*Job),
		byID:        make(map[string]*Job),
		maxRetained: maxRetained,
		lru:         list.New(),
		lruElem:     make(map[string]*list.Element),
		evicted:     make(map[string]struct{}),
		maxBatches:  maxBatches,
		batches:     make(map[string]*Batch),
		batchLRU:    list.New(),
		batchElem:   make(map[string]*list.Element),
	}
	r.m.workers.Set(int64(opts.Workers))
	if !opts.DisablePool {
		if opts.Pool != nil {
			r.pool = opts.Pool
		} else {
			r.pool = pool.New(pool.Options{
				MaxWorkloads: pool.BundlesPerWorker * opts.Workers,
				Metrics:      r.m.reg,
			})
		}
	}
	if opts.Store != nil {
		r.store = opts.Store
		// Entries dropped by store compaction are truly gone (unless
		// still held in memory): remember them so lookups answer 410
		// Gone rather than 404.  The store invokes this outside its
		// own lock, so taking r.mu here cannot deadlock against
		// runner→store calls.
		r.store.OnDrop(func(id string) {
			r.mu.Lock()
			if _, inMemory := r.byID[id]; !inMemory {
				r.noteEvicted(id)
			}
			r.mu.Unlock()
		})
	}
	return r
}

// ArtifactPool returns the pool jobs draw workloads and images from —
// the one passed in Options.Pool or the private one created by New —
// or nil when pooling is disabled.
func (r *Runner) ArtifactPool() *pool.Pool { return r.pool }

// Store returns the disk-backed result tier, nil when persistence is
// disabled.
func (r *Runner) Store() *store.Store { return r.store }

// MaxRetained returns the completed-job retention bound (negative
// means unbounded).
func (r *Runner) MaxRetained() int { return r.maxRetained }

// Workers returns the pool size.
func (r *Runner) Workers() int { return r.opts.Workers }

// Metrics returns the telemetry registry holding the runner's
// instruments (the one passed in Options.Metrics, or the private one
// created for this Runner).
func (r *Runner) Metrics() *telemetry.Registry { return r.m.reg }

// Tracer returns the per-job trace ring, nil when tracing is disabled
// (Options.TraceCapacity < 0).
func (r *Runner) Tracer() *telemetry.Tracer { return r.tracer }

// Close cancels every in-flight job and rejects further submissions.
func (r *Runner) Close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.cancel()
}

// Drain stops admission and waits, up to ctx's deadline, for every
// queued and running job to finish and for every registered batch's
// final snapshot to reach the store.  It returns the number of jobs
// and batch snapshots still unfinished — 0 on a clean drain.  Drain
// does not cancel the abandoned jobs; call Close afterwards to reclaim
// their workers.
func (r *Runner) Drain(ctx context.Context) int {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	for {
		n := int(r.m.queued.Value() + r.m.running.Value() + r.snapshots.Load())
		if n == 0 {
			return 0
		}
		select {
		case <-ctx.Done():
			return n
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Submit registers the spec for execution and returns its job handle
// immediately.  If an identical job (same canonical key) is already
// cached or in flight, the existing handle is returned and reused is
// true; no second simulation starts.
func (r *Runner) Submit(spec JobSpec) (job *Job, reused bool, err error) {
	norm, err := spec.Normalize()
	if err != nil {
		return nil, false, err
	}
	key, _ := norm.Key()

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, false, ErrRunnerClosed
	}
	if j, ok := r.byKey[key]; ok {
		st := j.State()
		if st == StateDone || st == StateFailed {
			r.m.cacheHits.Inc()
			if e, ok := r.lruElem[j.ID]; ok {
				r.lru.MoveToBack(e) // refresh recency
			}
		} else {
			r.m.coalesced.Inc()
		}
		r.mu.Unlock()
		return j, true, nil
	}
	// Second tier: a result persisted by this or an earlier process
	// serves the submission without recomputing (warm start).  A
	// store hit is a cache hit — it is admitted even when the queue
	// is full, like any other cached answer.
	if j, ok := r.restoreJobLocked(idFromKey(key), key); ok {
		r.m.cacheHits.Inc()
		r.mu.Unlock()
		return j, true, nil
	}
	if r.opts.MaxQueue > 0 && int(r.m.queued.Value()) >= r.opts.MaxQueue {
		r.m.shed.Inc()
		r.mu.Unlock()
		return nil, false, fmt.Errorf("%w (%d jobs queued)", ErrQueueFull, r.opts.MaxQueue)
	}
	j := &Job{
		ID:    idFromKey(key),
		Key:   key,
		Spec:  norm,
		done:  make(chan struct{}),
		state: StateQueued,
	}
	if tr := r.tracer.Start(j.ID); tr != nil {
		j.span = tr.Root()
		j.span.SetAttr("workload", norm.Workload)
		j.span.SetAttr("config", string(norm.Config))
		j.span.SetAttr("seed", strconv.FormatUint(norm.Seed, 10))
		j.span.SetAttr("measure", strconv.Itoa(norm.Measure))
	}
	r.byKey[key] = j
	r.byID[j.ID] = j
	// IDs are content-derived, so a resubmitted spec reuses the ID of
	// a job evicted earlier; it is no longer "gone".
	delete(r.evicted, j.ID)
	r.queue = append(r.queue, queuedJob{j: j, span: j.span.Child("queued"), since: time.Now()})
	r.m.cacheMisses.Inc()
	r.m.queued.Inc()
	r.mu.Unlock()

	go r.drive()
	return j, false, nil
}

// queuedJob is an admitted job waiting for a worker, with the span and
// the clock its wait is measured by; both start at admission.
type queuedJob struct {
	j     *Job
	span  *telemetry.Span
	since time.Time
}

// Run submits the spec and waits for its result.
func (r *Runner) Run(ctx context.Context, spec JobSpec) (Result, error) {
	j, reused, err := r.Submit(spec)
	if err != nil {
		return Result{}, err
	}
	res, err := j.Wait(ctx)
	if err != nil {
		return Result{}, err
	}
	res.CacheHit = reused
	return res, nil
}

// RunAll submits every spec up front (so they fan out across the
// pool) and waits for all of them, returning results in spec order.
// The first error aborts the wait.
func (r *Runner) RunAll(ctx context.Context, specs []JobSpec) ([]Result, error) {
	jobs := make([]*Job, len(specs))
	reused := make([]bool, len(specs))
	for i, spec := range specs {
		j, ru, err := r.Submit(spec)
		if err != nil {
			return nil, err
		}
		jobs[i], reused[i] = j, ru
	}
	out := make([]Result, len(jobs))
	for i, j := range jobs {
		res, err := j.Wait(ctx)
		if err != nil {
			return nil, fmt.Errorf("runner: job %s: %w", j.Key, err)
		}
		res.CacheHit = reused[i]
		out[i] = res
	}
	return out, nil
}

// Job returns the job with the given short ID, if known — falling
// back to the disk store, so results demoted by the in-memory LRU (or
// computed by an earlier process against the same store) remain
// addressable without recomputation.
func (r *Runner) Job(id string) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if j, ok := r.byID[id]; ok {
		return j, ok
	}
	return r.restoreJobLocked(id, "")
}

// Evicted reports whether a job with this ID was recently evicted from
// the result cache.  The memory behind it is a bounded ring (see
// evictedMemory), so very old evictions eventually read false again —
// callers should treat true as "gone, resubmit to recompute" and false
// as "unknown".
func (r *Runner) Evicted(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.evicted[id]
	return ok
}

// retain enters a just-completed job into the retention order and
// evicts the least recently used completed jobs beyond the bound.
// In-flight jobs are never in the order, so they cannot be evicted.
func (r *Runner) retain(j *Job) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byID[j.ID]; !ok {
		// The job was dropped from the maps while it ran (cannot
		// happen today: only completed jobs are evicted); do not
		// resurrect a stale entry in the retention order.
		return
	}
	r.retainLocked(j)
}

// retainLocked appends j to the retention order and applies the
// bound.  Caller holds r.mu and has already ensured j is in the
// lookup maps.
func (r *Runner) retainLocked(j *Job) {
	r.lruElem[j.ID] = r.lru.PushBack(j)
	if r.maxRetained > 0 {
		for r.lru.Len() > r.maxRetained {
			r.evictOldest()
		}
	}
	r.m.retained.Set(int64(r.lru.Len()))
}

// evictOldest drops the least recently used completed job from the
// lookup maps and the retention order.  With a store attached a
// successful job's eviction is a demotion — the result stays servable
// from disk and the ID is not remembered as gone; only entries absent
// from the store (failed jobs, or write-through failures) enter the
// evicted ring and answer 410.  Caller holds r.mu.
func (r *Runner) evictOldest() {
	e := r.lru.Front()
	if e == nil {
		return
	}
	j := r.lru.Remove(e).(*Job)
	delete(r.lruElem, j.ID)
	delete(r.byKey, j.Key)
	delete(r.byID, j.ID)
	if r.store == nil || !r.store.Has(j.ID) {
		r.noteEvicted(j.ID)
	}
	r.m.evictions.Inc()
}

// noteEvicted records an evicted job ID in the bounded FIFO ring.
// Caller holds r.mu.
func (r *Runner) noteEvicted(id string) {
	if _, dup := r.evicted[id]; dup {
		return
	}
	capacity := evictedMemory(r.maxRetained)
	if len(r.evictRing) < capacity {
		r.evictRing = append(r.evictRing, id)
	} else {
		delete(r.evicted, r.evictRing[r.evictHead])
		r.evictRing[r.evictHead] = id
		r.evictHead = (r.evictHead + 1) % capacity
	}
	r.evicted[id] = struct{}{}
}

// drive waits for a worker slot, then takes the job at the front of
// the queue and runs it once, with panic isolation, recording metrics
// and trace phases.  Submit starts one drive per admitted job, so each
// queued job is taken exactly once, and jobs start in admission order
// whichever goroutine wins the slot.  A job is a pure function of its
// spec, so its one execution is final: a failure is recorded, and
// cached, like a result.  Shutdown before a slot frees fails the front
// job instead.
func (r *Runner) drive() {
	closed := false
	select {
	case r.sem <- struct{}{}:
	case <-r.rootCtx.Done():
		closed = true
	}
	r.mu.Lock()
	q := r.queue[0]
	r.queue[0] = queuedJob{} // the backing array must not pin the job
	r.queue = r.queue[1:]
	r.mu.Unlock()
	q.span.End()
	j := q.j
	if closed {
		r.finish(j, nil, fmt.Errorf("shut down while queued: %w", ErrRunnerClosed))
		return
	}
	r.m.queueWaitMS.Observe(float64(time.Since(q.since)) / 1e6)
	// Inc before Dec so queued+running never transiently reads 0 for
	// an in-flight job (Drain and /metrics read the gauges without
	// r.mu).
	r.m.running.Inc()
	r.m.queued.Dec()
	j.mu.Lock()
	j.state = StateRunning
	j.mu.Unlock()

	as := j.span.Child("attempt")
	execStart := time.Now()
	res, err := r.attempt(j, as)
	r.m.execMS.Observe(float64(time.Since(execStart)) / 1e6)
	if err != nil {
		as.SetAttr("error", err.Error())
		var pe *PanicError
		if errors.As(err, &pe) {
			r.m.panics.Inc()
		}
	}
	as.End()
	<-r.sem
	r.finish(j, res, err)
}

// attempt runs the job's execution on the calling worker goroutine,
// converting panics into *PanicError failures (with the stack
// captured at recovery) and mapping context errors onto the
// ErrJobTimeout / ErrRunnerClosed sentinels.  sp is the attempt's
// trace span (nil when tracing is disabled).
func (r *Runner) attempt(j *Job, sp *telemetry.Span) (res *Result, err error) {
	ctx := r.rootCtx
	if r.opts.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.opts.JobTimeout)
		defer cancel()
	}
	defer func() {
		if v := recover(); v != nil {
			buf := make([]byte, 64<<10)
			n := runtime.Stack(buf, false)
			res, err = nil, &PanicError{Value: v, Stack: string(buf[:n])}
		}
	}()
	if ferr := faultinject.FireCtx(ctx, "runner.execute"); ferr != nil {
		err = fmt.Errorf("runner: %s/%s: %w", j.Spec.Workload, j.Spec.Config, ferr)
	} else {
		res, err = r.execute(ctx, j.Spec, sp)
	}
	if err != nil {
		switch {
		case r.rootCtx.Err() != nil:
			err = fmt.Errorf("%w: %w", ErrRunnerClosed, err)
		case errors.Is(err, context.DeadlineExceeded):
			err = fmt.Errorf("%w (limit %v): %w", ErrJobTimeout, r.opts.JobTimeout, err)
		}
	}
	return res, err
}

// finish completes the job and folds its outcome into the metrics.
func (r *Runner) finish(j *Job, res *Result, err error) {
	// Write the result through to the disk tier before the job's
	// gauges drop: Drain observing an idle runner then implies every
	// completed result has been handed to the store, so the shutdown
	// path's store flush loses nothing.  Put failures are counted by
	// the store and leave the result memory-only.
	if err == nil && r.store != nil {
		if b, perr := encodeResult(res); perr == nil {
			_ = r.store.Put(j.ID, b)
		}
		// The timeline or sampled estimates are a separate record
		// after the result: losing it to a torn tail never takes the
		// result with it.
		if id, b, perr := encodeSide(res); perr == nil && b != nil {
			_ = r.store.Put(id, b)
		}
	}
	gauge := r.m.queued
	if j.State() == StateRunning {
		gauge = r.m.running
	}
	if err != nil {
		r.m.failed.Inc()
		j.span.SetAttr("error", err.Error())
	} else {
		r.m.completed.Inc()
		r.m.jobWallMS.Observe(float64(res.Wall) / float64(time.Millisecond))
		r.m.setupWallMS.Observe(float64(res.SetupWall) / float64(time.Millisecond))
		r.m.measureWallMS.Observe(float64(res.MeasureWall) / float64(time.Millisecond))
		r.m.recordResult(res)
		traceResultAttrs(j.span, res)
	}
	j.span.End()
	j.record(res, err)
	// The job leaves the gauges only once it reads as completed, so a
	// Drain that observes an idle runner finds every job done.
	gauge.Dec()
	// Only now that the job reads as completed does it become
	// evictable; until here it was pinned by being absent from the
	// retention order.  Waiters wake after the retention, so any
	// eviction it causes has happened by the time Wait returns.
	r.retain(j)
	close(j.done)
}

// execute runs one simulation: generate the workload, link and build
// the system, warm it up, and measure.  This is exactly the sequence
// experiments.Suite historically ran inline (including the driver
// seed offset), so results are bit-identical to the sequential path:
// the trace spans around each phase only observe wall clock and touch
// no simulation state, and the artifact pool — when enabled — serves
// the generate and link phases from cache, handing the job a bundle
// and a copy-on-write fork that are bit-identical to fresh ones (see
// internal/pool).  sp may be nil (tracing disabled).
func (r *Runner) execute(ctx context.Context, spec JobSpec, sp *telemetry.Span) (*Result, error) {
	ws, ok := WorkloadByName(spec.Workload)
	if !ok {
		return nil, fmt.Errorf("runner: unknown workload %q", spec.Workload)
	}
	cfg, err := spec.Config.Config(spec.Seed)
	if err != nil {
		return nil, err
	}
	setupStart := time.Now()
	ph := sp.Child("generate")
	var w *workload.Workload
	if r.pool != nil {
		var hit bool
		w, hit = r.pool.Workload(spec.Workload, ws.Gen, spec.Seed)
		ph.SetAttr("pool_hit", strconv.FormatBool(hit))
	} else {
		w = ws.Gen(spec.Seed)
	}
	ph.End()
	ph = sp.Child("link")
	var sys *core.System
	if r.pool != nil {
		var hit bool
		sys, hit, err = r.pool.ImageSystem(spec.Workload, spec.Seed, w, cfg)
		ph.SetAttr("pool_hit", strconv.FormatBool(hit))
	} else {
		sys, err = w.NewSystem(cfg)
	}
	ph.End()
	if err != nil {
		return nil, fmt.Errorf("runner: %s/%s: %w", spec.Workload, spec.Config, err)
	}
	d := workload.NewDriver(w, sys, workload.DriverSeed(spec.Seed))
	ph = sp.Child("warmup")
	err = d.WarmupContext(ctx, spec.Warm)
	ph.End()
	if err != nil {
		return nil, fmt.Errorf("runner: %s/%s: %w", spec.Workload, spec.Config, err)
	}
	setupWall := time.Since(setupStart)
	key, _ := spec.Key()
	res := &Result{Spec: spec, Key: key, ID: idFromKey(key)}
	measureStart := time.Now()
	if spec.SampleWindows > 0 {
		// Sampled simulation: fast-forward / warm / measure per window.
		// Counters cover only the measured excerpts (the sum of the
		// window deltas); the interval estimates live in res.Sampled.
		ph = sp.Child("measure-sampled")
		run, serr := d.RunSampledContext(ctx, spec.Measure, spec.SampleWindows, spec.SampleWarmup)
		ph.End()
		if serr != nil {
			return nil, fmt.Errorf("runner: %s/%s: %w", spec.Workload, spec.Config, serr)
		}
		var sum cpu.Counters
		for _, win := range run.Windows {
			sum = sum.Add(win.Counters)
		}
		res.Counters = sum
		res.PKI = core.PKIOf(sum)
		res.Samples = run.Classes
		res.Sampled = buildSampledResult(run)
	} else {
		// Arm timeline sampling only now: WarmupContext ended with
		// ResetStats, so the series covers exactly the measurement
		// window.  A disabled timeline leaves the kernel's sampler
		// disarmed — the measured zero-overhead path.
		var col *timeline.Collector
		if spec.TimelineInterval > 0 {
			col = timeline.NewCollector(spec.TimelineInterval, timeline.DefaultMaxPoints)
			col.Attach(sys.CPU())
		}
		ph = sp.Child("measure")
		samp, merr := d.RunContext(ctx, spec.Measure)
		ph.End()
		if merr != nil {
			if col != nil {
				col.Close() // disarm the sampler before the fork is discarded
			}
			return nil, fmt.Errorf("runner: %s/%s: %w", spec.Workload, spec.Config, merr)
		}
		res.Counters = sys.Counters()
		res.PKI = sys.PKI()
		res.Samples = samp
		if col != nil {
			series := col.Close()
			res.series = func() *timeline.Series { return series }
		}
	}
	res.MeasureWall = time.Since(measureStart)
	res.Trampolines = sys.LifetimeRecorder().Summary()
	res.SetupWall = setupWall
	res.Wall = setupWall + res.MeasureWall
	res.freeze()
	return res, nil
}

// Stats is a point-in-time snapshot of the runner's activity.
type Stats struct {
	Workers   int    `json:"workers"`
	Queued    int    `json:"queued"`
	Running   int    `json:"running"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`

	// Panics counts worker panics recovered into job failures; Shed
	// counts submissions rejected by admission control (MaxQueue).
	Panics uint64 `json:"panics"`
	Shed   uint64 `json:"shed"`

	// Retained is the number of completed jobs currently held in the
	// result cache; Evictions counts completed jobs dropped by the
	// MaxRetained LRU bound.
	Retained  int    `json:"retained"`
	Evictions uint64 `json:"evictions"`

	// CacheHits counts submissions answered from a completed cached
	// result; Deduped counts submissions coalesced onto an in-flight
	// identical job; CacheMisses counts submissions that started a
	// new simulation.
	CacheHits   uint64 `json:"cache_hits"`
	Deduped     uint64 `json:"deduped"`
	CacheMisses uint64 `json:"cache_misses"`

	// Job wall-clock latency over completed jobs, milliseconds.
	JobMeanMS float64 `json:"job_mean_ms"`
	JobP50MS  float64 `json:"job_p50_ms"`
	JobP99MS  float64 `json:"job_p99_ms"`
}

// Stats returns a snapshot of pool depth, cache effectiveness and job
// latency percentiles, read from the telemetry registry (the same
// instruments GET /metrics exposes — there is no shadow bookkeeping).
// The latency percentiles are histogram estimates: exact mean
// (sum/count), p50/p99 interpolated within the straddling bucket.
func (r *Runner) Stats() Stats {
	m := r.m
	st := Stats{
		Workers:     int(m.workers.Value()),
		Queued:      int(m.queued.Value()),
		Running:     int(m.running.Value()),
		Completed:   m.completed.Value(),
		Failed:      m.failed.Value(),
		Panics:      m.panics.Value(),
		Shed:        m.shed.Value(),
		Retained:    int(m.retained.Value()),
		Evictions:   m.evictions.Value(),
		CacheHits:   m.cacheHits.Value(),
		Deduped:     m.coalesced.Value(),
		CacheMisses: m.cacheMisses.Value(),
	}
	if m.jobWallMS.Count() > 0 {
		st.JobMeanMS = m.jobWallMS.Mean()
		st.JobP50MS = m.jobWallMS.Quantile(50)
		st.JobP99MS = m.jobWallMS.Quantile(99)
	}
	return st
}

// PairSpecs returns the Base/Enhanced spec pair for one workload — the
// unit the paper's tables compare.
func PairSpecs(name string, seed uint64, scale float64) [2]JobSpec {
	return [2]JobSpec{
		{Workload: name, Config: Base, Seed: seed, Scale: scale},
		{Workload: name, Config: Enhanced, Seed: seed, Scale: scale},
	}
}

// SuiteSpecs returns every paper workload's Base/Enhanced pair — the
// paper's evaluation matrix at the given seed and scale.  The churn
// workloads are excluded so suite batches keep their historical
// composition (and content-derived IDs); submit them individually.
func SuiteSpecs(seed uint64, scale float64) []JobSpec {
	paper := PaperWorkloads()
	out := make([]JobSpec, 0, 2*len(paper))
	for _, ws := range paper {
		p := PairSpecs(ws.Name, seed, scale)
		out = append(out, p[0], p[1])
	}
	return out
}
