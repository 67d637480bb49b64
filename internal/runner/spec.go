// Package runner turns one-shot simulations into schedulable,
// cacheable, parallel jobs.
//
// A JobSpec names everything that determines a simulation's outcome:
// the workload, the system configuration, the seed, and the request
// budgets.  Specs are content-addressed — two specs that normalise to
// the same canonical key denote the same simulation — so a Runner can
// deduplicate concurrent submissions (singleflight) and serve repeat
// submissions from an in-memory result cache.  Jobs execute on a
// fixed-size worker pool with per-job timeout and cancellation via
// context.Context.
//
// Determinism is preserved end to end: a job's execution sequence
// (workload generation, linking, warmup, measured requests) is exactly
// the sequence internal/experiments.Suite historically ran inline, so
// runner-backed results are bit-identical to sequential ones for the
// same spec.  This invariant is what lets the whole evaluation fan out
// across cores without perturbing any published number.
package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/timeline"
	"repro/internal/workload"
)

// ConfigKind names one of the evaluated system configurations.  The
// string values are stable wire names used in job keys and in the
// dlsimd HTTP API.
type ConfigKind string

// The comparison space of the paper (§4.1) plus the ARM trampoline
// variants (Fig. 2b).
const (
	Base        ConfigKind = "base"
	Enhanced    ConfigKind = "enhanced"
	Eager       ConfigKind = "eager"
	Static      ConfigKind = "static"
	Patched     ConfigKind = "patched"
	BaseARM     ConfigKind = "base-arm"
	EnhancedARM ConfigKind = "enhanced-arm"
)

// configs maps each kind to its core preset constructor.
var configs = map[ConfigKind]func(uint64) core.Config{
	Base:        core.Base,
	Enhanced:    core.Enhanced,
	Eager:       core.Eager,
	Static:      core.Static,
	Patched:     core.Patched,
	BaseARM:     core.BaseARM,
	EnhancedARM: core.EnhancedARM,
}

// ConfigKinds returns every valid kind, in presentation order.
func ConfigKinds() []ConfigKind {
	return []ConfigKind{Base, Enhanced, Eager, Static, Patched, BaseARM, EnhancedARM}
}

// Valid reports whether k names a known configuration.
func (k ConfigKind) Valid() bool { _, ok := configs[k]; return ok }

// Config returns the core configuration for the kind under the seed.
func (k ConfigKind) Config(seed uint64) (core.Config, error) {
	f, ok := configs[k]
	if !ok {
		return core.Config{}, fmt.Errorf("runner: unknown config kind %q (valid: %v)", k, ConfigKinds())
	}
	return f(seed), nil
}

// WorkloadSpec binds a workload generator to its default measurement
// budget (the evaluation's per-workload request counts, §4.4).
type WorkloadSpec struct {
	Name    string
	Gen     func(seed uint64) *workload.Workload
	Warm    int // warmup requests before measurement
	Measure int // measured requests at scale 1.0
}

// Workloads is the full registry: the paper's four evaluation
// workloads in presentation order, followed by the library-churn
// workloads (plugin-server: dlclose/dlopen rotation with demand-driven
// reloads; jit: runtime GOT rewriting).  Paper-facing tables iterate
// PaperWorkloads so churn additions never perturb published rows.
var Workloads = []WorkloadSpec{
	{Name: "apache", Gen: workload.Apache, Warm: 80, Measure: 400},
	{Name: "firefox", Gen: workload.Firefox, Warm: 20, Measure: 150},
	{Name: "memcached", Gen: workload.Memcached, Warm: 80, Measure: 600},
	{Name: "mysql", Gen: workload.MySQL, Warm: 40, Measure: 200},
	{Name: "plugin-server", Gen: workload.PluginServer, Warm: 30, Measure: 160},
	{Name: "jit", Gen: workload.JIT, Warm: 30, Measure: 160},
}

// NumPaperWorkloads counts the leading registry entries that belong to
// the paper's Table 2/Figure 6 evaluation set.
const NumPaperWorkloads = 4

// PaperWorkloads returns the paper's evaluation workloads — the
// registry subset every reproduced table and figure iterates.
func PaperWorkloads() []WorkloadSpec { return Workloads[:NumPaperWorkloads] }

// WorkloadByName returns the registered workload spec.
func WorkloadByName(name string) (WorkloadSpec, bool) {
	for _, ws := range Workloads {
		if ws.Name == name {
			return ws, true
		}
	}
	return WorkloadSpec{}, false
}

// WorkloadNames returns the registered workload names in order.
func WorkloadNames() []string {
	out := make([]string, len(Workloads))
	for i, ws := range Workloads {
		out[i] = ws.Name
	}
	return out
}

// JobSpec fully determines one simulation job.  The zero values of
// Scale, Warm and Measure mean "use the workload's defaults"; explicit
// values override them.
type JobSpec struct {
	// Workload is a registered workload name (see WorkloadNames).
	Workload string `json:"workload"`

	// Config is the system configuration to simulate under.
	Config ConfigKind `json:"config"`

	// Seed drives workload generation, layout and request
	// interleaving; the same seed produces bit-identical results.
	Seed uint64 `json:"seed"`

	// Scale multiplies the default measured request count.  Zero or
	// negative means 1.0.
	Scale float64 `json:"scale,omitempty"`

	// Warm overrides the warmup request count.  Zero means the
	// workload default.
	Warm int `json:"warm,omitempty"`

	// Measure overrides the measured request count before scaling.
	// Zero means the workload default.
	Measure int `json:"measure,omitempty"`

	// TimelineInterval selects the interval-sampling granularity in
	// retired instructions for the job's phase timeline.  Zero means
	// timeline.DefaultInterval; values below timeline.MinInterval are
	// raised to it.  The interval only changes observation granularity
	// — aggregate counters are bit-identical at any setting.
	TimelineInterval uint64 `json:"timeline_interval,omitempty"`

	// TimelineOff disables timeline collection for this job: the
	// kernel runs with sampling disarmed (the measured zero-overhead
	// path) and GET /v1/jobs/{id}/timeline answers 404.
	TimelineOff bool `json:"timeline_off,omitempty"`

	// SampleWindows, when positive, switches the job to sampled
	// simulation: the measured request budget is split into this many
	// evenly spaced windows, most of each window is fast-forwarded with
	// architectural fidelity only, and the result carries per-counter
	// means with 95% confidence intervals over the measured excerpts
	// (Result.Sampled).  At least 2 windows are required — a single
	// window has no variance estimate.  Zero (the default) runs the
	// exact simulation, leaving the spec's key and every
	// content-derived ID exactly as before sampling existed.
	SampleWindows int `json:"sample_windows,omitempty"`

	// SampleWarmup is the number of detailed warmup requests run (and
	// discarded) after each window's fast-forward phase, rebuilding
	// microarchitectural state before measurement.  Zero means the
	// default (DefaultSampleWarmup); only meaningful with
	// SampleWindows > 0.
	SampleWarmup int `json:"sample_warmup,omitempty"`
}

// Validate checks the spec against the registries.
func (j JobSpec) Validate() error {
	if _, ok := WorkloadByName(j.Workload); !ok {
		return fmt.Errorf("runner: unknown workload %q (valid: %v)", j.Workload, WorkloadNames())
	}
	if !j.Config.Valid() {
		return fmt.Errorf("runner: unknown config kind %q (valid: %v)", j.Config, ConfigKinds())
	}
	if j.Warm < 0 || j.Measure < 0 {
		return fmt.Errorf("runner: negative request budget (warm=%d, measure=%d)", j.Warm, j.Measure)
	}
	if j.SampleWindows < 0 || j.SampleWarmup < 0 {
		return fmt.Errorf("runner: negative sampling parameter (sample_windows=%d, sample_warmup=%d)",
			j.SampleWindows, j.SampleWarmup)
	}
	if j.SampleWindows == 1 {
		return fmt.Errorf("runner: sample_windows=1 has no variance estimate; use >= 2 windows or leave sampling off")
	}
	if j.SampleWindows == 0 && j.SampleWarmup != 0 {
		return fmt.Errorf("runner: sample_warmup=%d without sample_windows", j.SampleWarmup)
	}
	return nil
}

// MinMeasure is the smallest measured-request budget a job runs with:
// fewer requests give percentiles no support.  Scaled-down defaults
// are clamped up to it; explicitly requested budgets below it are
// rejected by Normalize instead, so a caller asking for measure=5
// learns the request is unsatisfiable rather than silently receiving
// a 20-request result cached under a key they never asked for.
const MinMeasure = 20

// DefaultSampleWarmup is the per-window detailed warmup applied when a
// sampled spec leaves SampleWarmup zero: enough requests to re-warm
// caches and predictor state after a fast-forward phase (SMARTS-style
// detailed warming) without eating into the measured excerpt.
const DefaultSampleWarmup = 2

// Normalize resolves defaults and folds Scale into the measured
// request count, returning the canonical form of the spec.  Two specs
// denoting the same simulation normalise identically.  The measured
// count is scaled and clamped exactly as experiments.Suite does, so
// runner results line up with the historical sequential path.  An
// explicit Measure below MinMeasure is an error; only the
// workload-default and Scale-folding paths clamp.
func (j JobSpec) Normalize() (JobSpec, error) {
	if err := j.Validate(); err != nil {
		return JobSpec{}, err
	}
	ws, _ := WorkloadByName(j.Workload)
	out := j
	if out.Warm == 0 {
		out.Warm = ws.Warm
	}
	if out.Measure == 0 {
		out.Measure = ws.Measure
	} else if out.Measure < MinMeasure {
		return JobSpec{}, fmt.Errorf("runner: measure=%d below the minimum %d (leave measure unset for the workload default)",
			out.Measure, MinMeasure)
	}
	scale := out.Scale
	if scale <= 0 {
		scale = 1
	}
	// A budget past the int range (or NaN) would wrap in the
	// conversion below, and the clamp would then quietly turn the job
	// into a MinMeasure one.
	f := float64(out.Measure) * scale
	if !(f < math.MaxInt) {
		return JobSpec{}, fmt.Errorf("runner: measure=%d at scale=%g overflows the request budget", out.Measure, scale)
	}
	n := int(f)
	if n < MinMeasure {
		n = MinMeasure
	}
	out.Measure = n
	out.Scale = 0 // folded into Measure
	if out.SampleWindows > 0 {
		// Sampled simulation fast-forwards most of the run, so a phase
		// timeline over it would be full of holes; the two features are
		// mutually exclusive.  An explicit interval is a contradictory
		// request and is rejected; otherwise sampling forces the
		// timeline off.
		if out.TimelineInterval != 0 && !out.TimelineOff {
			return JobSpec{}, fmt.Errorf("runner: timeline_interval=%d is incompatible with sample_windows=%d (sampled jobs collect no timeline)",
				out.TimelineInterval, out.SampleWindows)
		}
		out.TimelineOff = true
		if out.SampleWarmup == 0 {
			out.SampleWarmup = DefaultSampleWarmup
		}
		if perWin := out.Measure / out.SampleWindows; perWin <= out.SampleWarmup {
			return JobSpec{}, fmt.Errorf("runner: measure=%d over sample_windows=%d leaves %d requests per window, need more than sample_warmup=%d",
				out.Measure, out.SampleWindows, perWin, out.SampleWarmup)
		}
	}
	if out.TimelineOff {
		out.TimelineInterval = 0
	} else if out.TimelineInterval == 0 {
		out.TimelineInterval = timeline.DefaultInterval
	} else if out.TimelineInterval < timeline.MinInterval {
		out.TimelineInterval = timeline.MinInterval
	}
	return out, nil
}

// Key returns the canonical content-address of the simulation the
// spec denotes.  Specs that normalise identically share a key; the
// Runner caches and deduplicates by it.
func (j JobSpec) Key() (string, error) {
	n, err := j.Normalize()
	if err != nil {
		return "", err
	}
	key := fmt.Sprintf("%s|%s|seed=%d|warm=%d|measure=%d",
		n.Workload, n.Config, n.Seed, n.Warm, n.Measure)
	// Timeline settings only affect observation, but jobs are cached
	// by key and the cached result carries the series — a non-default
	// granularity therefore gets its own key.  Default settings leave
	// the key exactly as before timelines existed, preserving every
	// content-derived ID.
	switch {
	case n.TimelineOff:
		key += "|tl=off"
	case n.TimelineInterval != timeline.DefaultInterval:
		key += fmt.Sprintf("|tl=%d", n.TimelineInterval)
	}
	// Sampled jobs estimate rather than measure exactly, so they can
	// never share a cache entry with an exact job (or with a different
	// window split).  Exact jobs carry no suffix — their keys are
	// byte-identical to pre-sampling ones.
	if n.SampleWindows > 0 {
		key += fmt.Sprintf("|sw=%d|su=%d", n.SampleWindows, n.SampleWarmup)
	}
	return key, nil
}

// idFromKey derives the short hex job ID used by the dlsimd HTTP API
// from a canonical key.
func idFromKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:8])
}
