package runner

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/stats"
	"repro/internal/timeline"
	"repro/internal/trace"
)

// Disk forms of completed work, stored as JSON payloads in the
// content-addressed store (internal/store) under the same IDs the
// HTTP API serves.  The envelope carries a version and kind so a
// record can be rejected rather than misread if the format ever
// changes; integers round-trip exactly through encoding/json (uint64
// decodes via strconv, float64 marshals shortest-round-trip), which
// is what makes a restored result's counters bit-identical to the
// live run's.
const (
	persistVersion = 1
	kindJob        = "job"
	kindBatch      = "batch"
	kindTimeline   = "timeline"
	kindSampled    = "sampled"
)

// persistedResult is the durable subset of a Result: everything the
// API and batch aggregation read.  Of the trampoline summary only the
// API-visible numbers (distinct trampolines, total library calls) are
// persisted; the ranked counts and the stack-distance histogram serve
// the in-process experiment suite alone.
type persistedResult struct {
	V    int    `json:"v"`
	Kind string `json:"kind"`

	Spec JobSpec `json:"spec"`
	Key  string  `json:"key"`
	ID   string  `json:"id"`

	Counters cpu.Counters `json:"counters"`
	PKI      core.PKI     `json:"pki"`

	// Classes holds each request class's raw latency observations in
	// microseconds (sorted; order is irrelevant to the statistics).
	Classes map[string][]float64 `json:"classes"`

	DistinctTrampolines int    `json:"distinct_trampolines"`
	LibCalls            uint64 `json:"lib_calls"`

	SetupWallNS   int64 `json:"setup_wall_ns"`
	MeasureWallNS int64 `json:"measure_wall_ns"`
}

// encodeResult serialises a completed Result for the store.
func encodeResult(res *Result) ([]byte, error) {
	p := persistedResult{
		V:                   persistVersion,
		Kind:                kindJob,
		Spec:                res.Spec,
		Key:                 res.Key,
		ID:                  res.ID,
		Counters:            res.Counters,
		PKI:                 res.PKI,
		Classes:             make(map[string][]float64, len(res.Samples)),
		DistinctTrampolines: res.DistinctTrampolines(),
		LibCalls:            res.LibCalls(),
		SetupWallNS:         int64(res.SetupWall),
		MeasureWallNS:       int64(res.MeasureWall),
	}
	for class, s := range res.Samples {
		p.Classes[class] = append([]float64(nil), s.Values()...)
	}
	return json.Marshal(p)
}

// decodeResult rebuilds a Result from its disk form.  The result is
// marked Restored, and its trampoline summary carries only the
// persisted distinct count and call total.
func decodeResult(b []byte) (*Result, error) {
	var p persistedResult
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("runner: corrupt stored result: %w", err)
	}
	if p.V != persistVersion || p.Kind != kindJob {
		return nil, fmt.Errorf("runner: stored record is not a v%d job result (v=%d kind=%q)", persistVersion, p.V, p.Kind)
	}
	res := &Result{
		Spec:        p.Spec,
		Key:         p.Key,
		ID:          p.ID,
		Counters:    p.Counters,
		PKI:         p.PKI,
		Samples:     make(map[string]*stats.Sample, len(p.Classes)),
		SetupWall:   time.Duration(p.SetupWallNS),
		MeasureWall: time.Duration(p.MeasureWallNS),
		Wall:        time.Duration(p.SetupWallNS + p.MeasureWallNS),
		Restored:    true,
		Trampolines: trace.Summary{Distinct: p.DistinctTrampolines, Calls: p.LibCalls},
	}
	for class, xs := range p.Classes {
		s := &stats.Sample{}
		s.AddAll(xs)
		res.Samples[class] = s
	}
	res.freeze()
	return res, nil
}

// persistedSide is the durable form of a side record: a job's
// timeline or its sampled estimates, stored beside (not inside) the
// job's result under its own store ID.  A torn side record lost to
// crash recovery never takes the result with it, and vice versa.
// Exactly one body field is set; the other is omitted, so each kind
// keeps its own JSON shape.  Timeline points are uint64 deltas, which
// round-trip exactly through encoding/json, so a restored record is
// byte-identical to the live run's.
type persistedSide struct {
	V    int    `json:"v"`
	Kind string `json:"kind"`

	ID      string           `json:"id"` // the owning job's ID, without the store-ID prefix
	Series  *timeline.Series `json:"series,omitempty"`
	Sampled *SampledResult   `json:"sampled,omitempty"`
}

// sideKind names the one side record a job with this spec persists
// beside its result: a sampled job's estimates, or an exact job's
// timeline unless timeline_off ("" then).  Normalize forces
// timeline_off on sampled jobs, so no job has two.
func sideKind(spec JobSpec) string {
	switch {
	case spec.SampleWindows > 0:
		return kindSampled
	case !spec.TimelineOff:
		return kindTimeline
	}
	return ""
}

// sideStoreID derives the store ID of a job's side record of the given
// kind.  The kind's initial, "t" or "s", keeps it disjoint from job IDs
// (16 hex chars) and batch IDs ("b" prefix).
func sideStoreID(kind, jobID string) string { return kind[:1] + jobID }

// encodeSide serialises res's side record for the store under the
// returned store ID; b is nil when the job collected none.
func encodeSide(res *Result) (storeID string, b []byte, err error) {
	series := res.Timeline()
	if series == nil && res.Sampled == nil {
		return "", nil, nil
	}
	kind := sideKind(res.Spec)
	b, err = json.Marshal(persistedSide{V: persistVersion, Kind: kind, ID: res.ID,
		Series: series, Sampled: res.Sampled})
	return sideStoreID(kind, res.ID), b, err
}

// decodeSide rebuilds a side record of the given kind from its disk
// form.  Only a non-empty body of that kind is accepted.
func decodeSide(b []byte, kind string) (*persistedSide, error) {
	var p persistedSide
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("runner: corrupt stored %s record: %w", kind, err)
	}
	if p.V != persistVersion || p.Kind != kind {
		return nil, fmt.Errorf("runner: stored record is not a v%d %s record (v=%d kind=%q)", persistVersion, kind, p.V, p.Kind)
	}
	var full bool
	if kind == kindTimeline {
		p.Sampled = nil
		full = p.Series != nil && len(p.Series.Points) > 0
	} else {
		p.Series = nil
		full = p.Sampled != nil && p.Sampled.Windows > 0
	}
	if !full {
		return nil, fmt.Errorf("runner: stored %s record %s is empty", kind, p.ID)
	}
	return &p, nil
}

// persistedBatch is a completed batch's durable form: the expanded
// specs (for provenance) and the final status snapshot, aggregates
// included.  Per-job results live as their own store records; the
// batch record is what lets GET /v1/batches/{id} answer across
// restarts without re-walking jobs.
type persistedBatch struct {
	V    int    `json:"v"`
	Kind string `json:"kind"`

	ID     string      `json:"id"`
	Specs  []JobSpec   `json:"specs"`
	Status BatchStatus `json:"status"`
}

// encodeBatch serialises a batch's final snapshot for the store.
func encodeBatch(id string, specs []JobSpec, st BatchStatus) ([]byte, error) {
	return json.Marshal(persistedBatch{
		V:      persistVersion,
		Kind:   kindBatch,
		ID:     id,
		Specs:  specs,
		Status: st,
	})
}

// decodeBatch rebuilds a batch snapshot from its disk form.
func decodeBatch(b []byte) (*persistedBatch, error) {
	var p persistedBatch
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("runner: corrupt stored batch: %w", err)
	}
	if p.V != persistVersion || p.Kind != kindBatch {
		return nil, fmt.Errorf("runner: stored record is not a v%d batch (v=%d kind=%q)", persistVersion, p.V, p.Kind)
	}
	return &p, nil
}
