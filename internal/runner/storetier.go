package runner

// The disk-tier lookup path: promoting persisted results back into
// the in-memory cache.  The store itself lives in internal/store;
// this file is the glue that turns its byte payloads back into
// completed *Job handles.

import (
	"sync"

	"repro/internal/store"
	"repro/internal/timeline"
)

// closedChan is a pre-closed done channel shared by every restored
// job — they were complete before this process ever saw them.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Timeline returns the phase timeline of the job with the given short
// ID (see Result.Timeline).  It answers false for unknown jobs, jobs
// that ran with timelines disabled, jobs still in flight, and timeline
// records lost to crash recovery — the result itself stays servable in
// every one of those cases.
func (r *Runner) Timeline(id string) (*timeline.Series, bool) {
	if j, ok := r.Job(id); ok {
		if res, ok := j.Result(); ok {
			series := res.Timeline()
			return series, series != nil
		}
	}
	return nil, false
}

// restoreJobLocked looks id up in the disk store and, on a hit,
// promotes it into the in-memory cache as a completed job.  It is the
// only reader of a job's records: the result, then the side record
// its spec says was persisted beside it (sideKind), so a restored
// Result answers Timeline and Sampled exactly as the live one did —
// nil only when that record was lost to crash recovery.  wantKey,
// when non-empty, must match the stored result's canonical key (a
// Submit-path paranoia check; the ID is a truncated hash of the key).
// Caller holds r.mu; the runner→store lock order is safe because the
// store never calls back into the runner while holding its own lock.
func (r *Runner) restoreJobLocked(id, wantKey string) (*Job, bool) {
	if r.store == nil {
		return nil, false
	}
	payload, ok, err := r.store.Get(id)
	if !ok || err != nil {
		return nil, false
	}
	res, err := decodeResult(payload)
	if err != nil {
		// Foreign or corrupt record (e.g. a batch snapshot probed by
		// a job lookup): treat as a miss, never as an error.
		return nil, false
	}
	if res.ID != id || (wantKey != "" && res.Key != wantKey) {
		return nil, false
	}
	switch kind := sideKind(res.Spec); kind {
	case kindSampled:
		// The job's own answer serves the estimates: read them now.
		if side := readSide(r.store, kind, id); side != nil {
			res.Sampled = side.Sampled
		}
	case kindTimeline:
		// Only timeline reads and batch merges use the series, and it
		// costs far more to decode than the result: read it on first
		// use, outside r.mu.
		st := r.store
		res.series = sync.OnceValue(func() *timeline.Series {
			if side := readSide(st, kind, id); side != nil {
				return side.Series
			}
			return nil
		})
	}
	j := &Job{
		ID:     id,
		Key:    res.Key,
		Spec:   res.Spec,
		done:   closedChan,
		state:  StateDone,
		result: res,
	}
	r.byKey[j.Key] = j
	r.byID[id] = j
	// The ID is addressable again; it is no longer "gone".
	delete(r.evicted, id)
	r.retainLocked(j)
	return j, true
}

// readSide reads the side record of the given kind owned by job id,
// nil when the store holds no intact record of that kind.
func readSide(st *store.Store, kind, id string) *persistedSide {
	b, ok, _ := st.Get(sideStoreID(kind, id))
	if !ok {
		return nil
	}
	side, err := decodeSide(b, kind)
	if err != nil {
		return nil
	}
	return side
}
