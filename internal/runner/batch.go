package runner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/timeline"
)

// SweepSpec names a parameter sweep: one workload crossed with a set
// of system configurations and seeds under shared request budgets —
// the shape of almost all real traffic against the service (the
// paper's own evaluation is four such sweeps).  A sweep is the unit
// the artifact pool is built for: every job in it shares the
// workload bundle per seed, and every config with identical link
// options shares a master image per seed.
type SweepSpec struct {
	Workload string       `json:"workload"`
	Configs  []ConfigKind `json:"configs"`
	Seeds    []uint64     `json:"seeds"`

	// Scale, Warm and Measure apply to every expanded job, with
	// JobSpec's zero-value default semantics.
	Scale   float64 `json:"scale,omitempty"`
	Warm    int     `json:"warm,omitempty"`
	Measure int     `json:"measure,omitempty"`

	// TimelineInterval and TimelineOff apply to every expanded job
	// (see JobSpec); zero values keep the default sampling grid and
	// therefore every pre-timeline batch ID.
	TimelineInterval uint64 `json:"timeline_interval,omitempty"`
	TimelineOff      bool   `json:"timeline_off,omitempty"`

	// SampleWindows and SampleWarmup apply to every expanded job (see
	// JobSpec): a positive window count runs the whole sweep as sampled
	// simulation.  Zero values keep the exact path and every
	// pre-sampling batch ID.
	SampleWindows int `json:"sample_windows,omitempty"`
	SampleWarmup  int `json:"sample_warmup,omitempty"`
}

// MaxBatchJobs bounds one sweep's expansion, so a single request
// cannot enqueue unbounded work past admission control.
const MaxBatchJobs = 1024

// Expand crosses the sweep's axes into normalized job specs in
// (config-major, seed-minor) order, deduplicating jobs that normalise
// to the same canonical key.  Every spec error aborts the expansion:
// a batch is accepted whole or not at all.
func (s SweepSpec) Expand() ([]JobSpec, error) {
	if len(s.Configs) == 0 {
		return nil, fmt.Errorf("runner: sweep has no configs")
	}
	if len(s.Seeds) == 0 {
		return nil, fmt.Errorf("runner: sweep has no seeds")
	}
	if n := len(s.Configs) * len(s.Seeds); n > MaxBatchJobs {
		return nil, fmt.Errorf("runner: sweep expands to %d jobs (max %d)", n, MaxBatchJobs)
	}
	seen := make(map[string]struct{}, len(s.Configs)*len(s.Seeds))
	specs := make([]JobSpec, 0, len(s.Configs)*len(s.Seeds))
	for _, cfg := range s.Configs {
		for _, seed := range s.Seeds {
			spec := JobSpec{
				Workload:         s.Workload,
				Config:           cfg,
				Seed:             seed,
				Scale:            s.Scale,
				Warm:             s.Warm,
				Measure:          s.Measure,
				TimelineInterval: s.TimelineInterval,
				TimelineOff:      s.TimelineOff,
				SampleWindows:    s.SampleWindows,
				SampleWarmup:     s.SampleWarmup,
			}
			norm, err := spec.Normalize()
			if err != nil {
				return nil, err
			}
			key, _ := norm.Key()
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			specs = append(specs, norm)
		}
	}
	return specs, nil
}

// Batch is a handle on one submitted sweep.  Its ID is derived from
// the canonical keys of its jobs, so resubmitting the same sweep
// (even with axes reordered or duplicated) addresses the same batch.
type Batch struct {
	ID    string
	Specs []JobSpec // normalized, deduplicated, expansion order
	jobs  []*Job

	// restored holds the final status snapshot of a batch reloaded
	// from the disk store; such a handle has no live jobs and serves
	// Status from the snapshot.
	restored *BatchStatus
}

// batchID content-addresses a batch by its jobs' canonical keys.
// Expansion order is deterministic given the sweep, but two sweeps
// listing the same cells in different axis order should still
// coincide, so the keys are sorted before hashing.
func batchID(specs []JobSpec) string {
	keys := make([]string, len(specs))
	for i, sp := range specs {
		keys[i], _ = sp.Key()
	}
	sort.Strings(keys)
	sum := sha256.Sum256([]byte(strings.Join(keys, "\n")))
	return "b" + hex.EncodeToString(sum[:8])
}

// Jobs returns the batch's job handles in expansion order.
func (b *Batch) Jobs() []*Job { return b.jobs }

// Wait blocks until every job in the batch has finished — done or
// failed — or the context expires.  Per-job failures do not abort the
// wait (a batch is expected to surface partial failure in its
// status); the only error is the context's.
func (b *Batch) Wait(ctx context.Context) error {
	for _, j := range b.jobs {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-j.done:
		}
	}
	return nil
}

// BatchJobStatus is one job's row in a batch status snapshot.
type BatchJobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Spec  JobSpec  `json:"spec"`
	Error string   `json:"error,omitempty"`
}

// BatchAggregate summarises a batch's completed jobs for one config
// across its seeds.  Latency figures are sample-count-weighted means
// over the jobs' request classes — a dashboard summary, not a
// substitute for per-job percentiles.
type BatchAggregate struct {
	Config   ConfigKind `json:"config"`
	Jobs     int        `json:"jobs"`
	MeanCPI  float64    `json:"mean_cpi"`
	MeanUS   float64    `json:"mean_us"`
	P99US    float64    `json:"p99_us"`
	SetupMS  float64    `json:"setup_ms"`
	MeasMS   float64    `json:"measure_ms"`
	TrampPKI float64    `json:"tramp_instrs_pki"`

	// Sampled-job roll-up: the unweighted mean of the jobs'
	// us_per_req estimates with the propagated 95% half-width
	// (sqrt of summed squared per-job half-widths over the job
	// count — exact for independent estimates).  Zero-valued when
	// no job in the config ran sampled.
	SampledJobs int     `json:"sampled_jobs,omitempty"`
	SampledUS   float64 `json:"sampled_us,omitempty"`
	SampledUSCI float64 `json:"sampled_us_ci95,omitempty"`
}

// BatchTimeline is one config's merged phase timeline over the
// batch's completed jobs: the per-job series element-wise summed on a
// common interval grid (see timeline.Merge).  Jobs counts the series
// merged — jobs that ran with timelines disabled, or whose series
// record was lost to crash recovery, do not contribute.
type BatchTimeline struct {
	Config ConfigKind       `json:"config"`
	Jobs   int              `json:"jobs"`
	Series *timeline.Series `json:"series"`
}

// BatchStatus is a point-in-time snapshot of a batch: progress,
// per-job states (including each failed job's error — partial
// failure is reported, never hidden), and per-config aggregates over
// the jobs that completed.
type BatchStatus struct {
	ID        string           `json:"id"`
	Total     int              `json:"total"`
	Queued    int              `json:"queued"`
	Running   int              `json:"running"`
	Done      int              `json:"done"`
	Failed    int              `json:"failed"`
	Completed bool             `json:"completed"`
	Jobs      []BatchJobStatus `json:"jobs"`
	Aggregate []BatchAggregate `json:"aggregate,omitempty"`
	Timelines []BatchTimeline  `json:"timelines,omitempty"`
}

// Status snapshots the batch.  A batch restored from the disk store
// returns its persisted final snapshot.
func (b *Batch) Status() BatchStatus {
	if b.restored != nil {
		return *b.restored
	}
	st := BatchStatus{ID: b.ID, Total: len(b.jobs)}
	type agg struct {
		jobs             int
		cpi, meanNum, wN float64
		p99Num           float64
		setupMS, measMS  float64
		trampPKI         float64
		series           []*timeline.Series

		sampledJobs   int
		sampledUSSum  float64
		sampledUSCISq float64
	}
	aggs := make(map[ConfigKind]*agg)
	order := make([]ConfigKind, 0, 4)
	for _, j := range b.jobs {
		row := BatchJobStatus{ID: j.ID, State: j.State(), Spec: j.Spec}
		if err := j.Err(); err != nil {
			row.Error = err.Error()
		}
		switch row.State {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateFailed:
			st.Failed++
		case StateDone:
			st.Done++
			if res, ok := j.Result(); ok {
				a := aggs[j.Spec.Config]
				if a == nil {
					a = &agg{}
					aggs[j.Spec.Config] = a
					order = append(order, j.Spec.Config)
				}
				a.jobs++
				if s := res.Timeline(); s != nil {
					a.series = append(a.series, s)
				}
				if res.Sampled != nil {
					if sc, ok := res.Sampled.Metrics["us_per_req"]; ok {
						a.sampledJobs++
						a.sampledUSSum += sc.Mean
						a.sampledUSCISq += sc.CI95 * sc.CI95
					}
				}
				if res.Counters.Instructions > 0 {
					a.cpi += float64(res.Counters.Cycles) / float64(res.Counters.Instructions)
				}
				a.trampPKI += res.PKI.TrampInstrs
				a.setupMS += float64(res.SetupWall) / float64(time.Millisecond)
				a.measMS += float64(res.MeasureWall) / float64(time.Millisecond)
				// Sorted class order: float accumulation order must
				// not depend on map iteration, or two Status() calls
				// could disagree in the last ULP.
				classes := make([]string, 0, len(res.Samples))
				for name := range res.Samples {
					classes = append(classes, name)
				}
				sort.Strings(classes)
				for _, name := range classes {
					s := res.Samples[name]
					n := float64(s.N())
					a.meanNum += n * s.Mean()
					a.p99Num += n * s.Percentile(99)
					a.wN += n
				}
			}
		}
		st.Jobs = append(st.Jobs, row)
	}
	st.Completed = st.Done+st.Failed == st.Total
	for _, cfg := range order {
		a := aggs[cfg]
		out := BatchAggregate{
			Config:   cfg,
			Jobs:     a.jobs,
			MeanCPI:  a.cpi / float64(a.jobs),
			SetupMS:  a.setupMS / float64(a.jobs),
			MeasMS:   a.measMS / float64(a.jobs),
			TrampPKI: a.trampPKI / float64(a.jobs),
		}
		if a.wN > 0 {
			out.MeanUS = a.meanNum / a.wN
			out.P99US = a.p99Num / a.wN
		}
		if a.sampledJobs > 0 {
			out.SampledJobs = a.sampledJobs
			out.SampledUS = a.sampledUSSum / float64(a.sampledJobs)
			out.SampledUSCI = math.Sqrt(a.sampledUSCISq) / float64(a.sampledJobs)
		}
		st.Aggregate = append(st.Aggregate, out)
		// Merged per-config timeline, kept beside (not inside) the
		// aggregate row: a batch restored from the store, or resumed
		// after a restart, aggregates bit-identically to the live one,
		// and that property must not depend on which jobs' series are
		// in memory.
		// All of a batch's series share one base interval and compact
		// by doubling, so incompatible grids can only come from
		// corrupted input; skip the timeline rather than fail Status.
		if merged, err := timeline.Merge(a.series); err == nil && merged != nil {
			st.Timelines = append(st.Timelines, BatchTimeline{
				Config: cfg,
				Jobs:   len(a.series),
				Series: merged,
			})
		}
	}
	return st
}

// DefaultMaxBatches is the batch retention bound applied when
// Options.MaxBatches is zero.  A batch handle keeps its jobs, and so
// their Results, alive past the job cache's MaxRetained bound; a
// Result holds counters, latency samples and a trampoline summary
// (tens of KiB for the largest apps), never a workload or an image.
// The bound exists so an eternal service's batch index cannot grow
// with its history.
const DefaultMaxBatches = 256

// SubmitBatch expands the sweep and submits every job, returning the
// batch handle.  Jobs enter the queue seed-major: all configs of one
// seed next to each other, so configs that share a seed's workload
// bundle (and, with the same link options, its master image) run
// while the artifact pool still holds it.  The pool keeps
// pool.BundlesPerWorker bundles per worker; submitted config-major, a
// sweep over more seeds than that would lose every bundle before its
// seed's next config forked it.  The handle, its status rows and its
// stored snapshot keep the expansion order.
//
// Identical sweeps (same expanded job set) share one batch:
// resubmission returns the existing handle with reused=true.
// Individual jobs still deduplicate against *all* prior traffic via
// the content-addressed job cache, so overlapping batches never
// re-simulate shared cells.  Submission is atomic in effect: any
// admission error (queue full, runner closed, invalid spec) fails the
// whole batch — jobs admitted before the failure keep running and
// stay individually addressable, but no batch is registered.
func (r *Runner) SubmitBatch(sweep SweepSpec) (batch *Batch, reused bool, err error) {
	specs, err := sweep.Expand()
	if err != nil {
		return nil, false, err
	}
	id := batchID(specs)

	r.mu.Lock()
	if b, ok := r.batches[id]; ok {
		if e, ok := r.batchElem[id]; ok {
			r.batchLRU.MoveToBack(e)
		}
		r.mu.Unlock()
		return b, true, nil
	}
	r.mu.Unlock()

	b := &Batch{ID: id, Specs: specs, jobs: make([]*Job, len(specs))}
	for _, i := range seedMajor(specs) {
		spec := specs[i]
		j, _, err := r.Submit(spec)
		if err != nil {
			return nil, false, fmt.Errorf("runner: batch job %d/%d (%s/%s seed=%d): %w",
				i+1, len(specs), spec.Workload, spec.Config, spec.Seed, err)
		}
		b.jobs[i] = j
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.batches[id]; ok {
		// Lost a submission race; the jobs we enqueued coalesced onto
		// the winner's, so just adopt its handle.
		return existing, true, nil
	}
	if r.closed {
		// Drain began after the jobs were admitted.  It waits only for
		// the snapshots of batches registered before it, so this one
		// fails whole, like any admission error.
		return nil, false, ErrRunnerClosed
	}
	r.batches[id] = b
	r.batchElem[id] = r.batchLRU.PushBack(id)
	if r.maxBatches > 0 {
		for r.batchLRU.Len() > r.maxBatches {
			old := r.batchLRU.Remove(r.batchLRU.Front()).(string)
			delete(r.batches, old)
			delete(r.batchElem, old)
			// Parity with job eviction: a batch demoted to the disk
			// store stays addressable; one truly dropped enters the
			// evicted ring so lookups answer 410 Gone, not 404.
			// (Batch and job IDs share the ring — the "b" prefix
			// keeps the namespaces disjoint.)
			if r.store == nil || !r.store.Has(old) {
				r.noteEvicted(old)
			}
		}
	}
	if r.store != nil {
		r.snapshots.Add(1)
		go r.persistBatch(b)
	}
	return b, false, nil
}

// seedMajor returns the indexes of specs ordered by seed, seeds in
// order of first appearance and each seed's specs in expansion order.
func seedMajor(specs []JobSpec) []int {
	rank := make(map[uint64]int)
	order := make([]int, len(specs))
	for i, sp := range specs {
		if _, ok := rank[sp.Seed]; !ok {
			rank[sp.Seed] = len(rank)
		}
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return rank[specs[order[a]].Seed] < rank[specs[order[b]].Seed]
	})
	return order
}

// persistBatch waits for every job in the batch to finish, then
// writes the batch's final snapshot (per-job states and per-config
// aggregates) through to the disk store under the batch ID.  Jobs
// always finish — runner shutdown fails them — so this goroutine is
// bounded by the batch's own lifetime; Drain waits for it.
func (r *Runner) persistBatch(b *Batch) {
	defer r.snapshots.Add(-1)
	for _, j := range b.jobs {
		<-j.done
	}
	payload, err := encodeBatch(b.ID, b.Specs, b.Status())
	if err != nil {
		return
	}
	_ = r.store.Put(b.ID, payload)
}

// Batch returns the batch with the given ID, if retained — falling
// back to the disk store, where completed batches' final snapshots
// survive retention eviction and process restarts.
func (r *Runner) Batch(id string) (*Batch, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.batches[id]
	if ok {
		if e, ok := r.batchElem[id]; ok {
			r.batchLRU.MoveToBack(e)
		}
		return b, ok
	}
	if r.store != nil {
		if payload, ok, _ := r.store.Get(id); ok {
			if pb, err := decodeBatch(payload); err == nil && pb.ID == id {
				return &Batch{ID: pb.ID, Specs: pb.Specs, restored: &pb.Status}, true
			}
		}
	}
	return nil, false
}
