package runner

import (
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/stats"
	"repro/internal/timeline"
	"repro/internal/trace"
)

// Result is the typed outcome of one completed job.
//
// A Result is immutable after the job completes: the Runner shares one
// Result value between every submitter of the same spec, and its
// samples are pre-sorted so that concurrent percentile reads are safe.
// Callers must not Add observations to its samples or modify its
// trampoline summary; derive fresh samples (TrimOutliers, AddAll into a
// new Sample) for any further aggregation.
type Result struct {
	// Spec is the normalized job spec (defaults resolved, scale
	// folded into Measure).
	Spec JobSpec

	// Key is the spec's canonical content-address; ID is its short
	// form used by the HTTP API.
	Key string
	ID  string

	// Counters is the CPU counter snapshot over the measurement
	// window, and PKI its per-kilo-instruction normalisation.
	Counters cpu.Counters
	PKI      core.PKI

	// Samples holds per-request-class latencies in microseconds for
	// the measured window.
	Samples map[string]*stats.Sample

	// Trampolines summarises the run's lifetime trampoline stream
	// (warmup included), the paper's whole-run pintool view: the
	// distinct count (Table 3), the ranked call counts (Figure 4) and
	// the LRU stack-distance histogram (Figure 5).  A Result keeps no
	// reference to the generated workload, the linked image or the
	// recorder, so a retained Result costs a few numbers per distinct
	// trampoline.  A restored result carries only Distinct and Calls,
	// the two persisted fields.
	Trampolines trace.Summary

	// series yields the job's phase-resolved counter series; see
	// Timeline.
	series func() *timeline.Series

	// Sampled carries the per-counter interval estimates of a sampled
	// job (Spec.SampleWindows > 0); nil on exact jobs.  On sampled
	// jobs, Counters/PKI cover only the measured window excerpts (the
	// sum of the window deltas) and Samples pool the measured
	// requests' latencies.
	Sampled *SampledResult

	// SetupWall is the wall clock spent before the first measured
	// request: workload generation (or pool fetch), linking (or
	// copy-on-write fork), and warmup.  MeasureWall covers only the
	// measured requests.  Wall is their sum — the whole simulation's
	// time on the worker — kept so existing consumers keep reading
	// one number.  Splitting them is what makes pool savings visible:
	// the pool shrinks SetupWall and cannot touch MeasureWall.
	SetupWall   time.Duration
	MeasureWall time.Duration
	Wall        time.Duration

	// CacheHit reports whether this submission was answered without
	// starting a new simulation (served from cache or coalesced onto
	// an in-flight identical job).
	CacheHit bool

	// Restored reports that this result was reloaded from the disk
	// store rather than computed in this process.  Counters, PKI,
	// Samples, Timeline and Sampled are bit-identical to the original
	// run's (Timeline or Sampled is nil if its record was lost to
	// crash recovery); of Trampolines only Distinct and Calls are
	// persisted.
	Restored bool
}

// Timeline returns the job's phase-resolved counter series over the
// measurement window, nil when the spec disabled collection.  A
// restored result reads its series record from the store on the first
// call, so serving the rest of the result never decodes a series.
func (r *Result) Timeline() *timeline.Series {
	if r.series == nil {
		return nil
	}
	return r.series()
}

// DistinctTrampolines returns the number of distinct trampolines the
// run called.
func (r *Result) DistinctTrampolines() int { return r.Trampolines.Distinct }

// LibCalls returns the total trampoline-routed library calls over the
// run's lifetime.
func (r *Result) LibCalls() uint64 { return r.Trampolines.Calls }

// freeze pre-sorts every sample so later concurrent reads (Percentile,
// Values, CDF) never mutate shared state.
func (r *Result) freeze() {
	for _, s := range r.Samples {
		s.Values()
	}
}
