package runner

// The disk-tier lookup path: promoting persisted results back into
// the in-memory cache.  The store itself lives in internal/store;
// this file is the glue that turns its byte payloads back into
// completed *Job handles.

import "repro/internal/timeline"

// closedChan is a pre-closed done channel shared by every restored
// job — they were complete before this process ever saw them.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Timeline returns the phase timeline of the job with the given short
// ID (see sideRecord.lookup).  It answers false for unknown jobs, jobs
// that ran with timelines disabled, jobs still in flight, and timeline
// records lost to crash recovery — the result itself stays servable in
// every one of those cases.
func (r *Runner) Timeline(id string) (*timeline.Series, bool) {
	return timelineRecord.lookup(r, id)
}

// Sampled returns the interval estimates of the sampled job with the
// given short ID (see sideRecord.lookup).  It answers false for unknown
// jobs, exact jobs, jobs still in flight, and sampled records lost to
// crash recovery.
func (r *Runner) Sampled(id string) (*SampledResult, bool) {
	return sampledRecord.lookup(r, id)
}

// lookup reads the side record of the job with the given short ID
// through both tiers: from the in-memory result when the job completed
// in this process, otherwise from the store record persisted beside
// the result.
func (k sideRecord[T]) lookup(r *Runner, id string) (*T, bool) {
	r.mu.Lock()
	j, inMem := r.byID[id]
	r.mu.Unlock()
	if inMem {
		if res, ok := j.Result(); ok && k.inResult(res) != nil {
			return k.inResult(res), true
		}
	}
	if r.store == nil {
		return nil, false
	}
	payload, ok, err := r.store.Get(k.storeID(id))
	if !ok || err != nil {
		return nil, false
	}
	v, err := k.decode(payload)
	if err != nil {
		return nil, false
	}
	return v, true
}

// put writes res's record of this kind, if it has one, through to the
// store beside the result.  Put failures are counted by the store.
func (k sideRecord[T]) put(r *Runner, jobID string, res *Result) {
	if v := k.inResult(res); v != nil {
		if b, err := k.encode(jobID, v); err == nil {
			_ = r.store.Put(k.storeID(jobID), b)
		}
	}
}

// restoreJobLocked looks id up in the disk store and, on a hit,
// promotes it into the in-memory cache as a completed job.  wantKey,
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
	j := &Job{
		ID:       id,
		Key:      res.Key,
		Spec:     res.Spec,
		done:     closedChan,
		state:    StateDone,
		result:   res,
		attempts: 1,
	}
	r.byKey[j.Key] = j
	r.byID[id] = j
	// The ID is addressable again; it is no longer "gone".
	delete(r.evicted, id)
	r.retainLocked(j)
	return j, true
}
