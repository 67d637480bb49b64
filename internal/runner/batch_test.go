package runner

import (
	"context"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/leakcheck"
)

// fastSweep is a cheap 2-config × 2-seed sweep.
func fastSweep() SweepSpec {
	return SweepSpec{
		Workload: "memcached",
		Configs:  []ConfigKind{Base, Enhanced},
		Seeds:    []uint64{1, 2},
		Warm:     5,
		Measure:  25,
	}
}

// TestPinnedBatchIDs pins three content-derived batch IDs, computed
// from the sweeps as dlsimd decodes them.  A batch ID hashes its jobs'
// canonical keys in sorted order, so it moves if a key, the sort or
// the hash does — a cache-invalidation event for every stored batch,
// like a moved job ID (TestPinnedJobIDs in cmd/dlsimd).
func TestPinnedBatchIDs(t *testing.T) {
	seeds := make([]string, 32)
	for i := range seeds {
		seeds[i] = strconv.Itoa(i + 1)
	}
	cases := []struct {
		body string
		id   string
	}{
		{`{"workload":"jit","configs":["base","enhanced"],"seeds":[4],"scale":0.25}`, "b6315f35fdbab0c0b"},
		{`{"workload":"apache","configs":["enhanced","base"],"seeds":[9,3,1,7],"scale":0.5,"sample_windows":4}`, "b6c3b5f5e2ae063ac"},
		{`{"workload":"memcached","configs":["base"],"seeds":[` + strings.Join(seeds, ",") + `],"timeline_off":true}`, "b707037ff36e101fa"},
	}
	for _, c := range cases {
		var sweep SweepSpec
		dec := json.NewDecoder(strings.NewReader(c.body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&sweep); err != nil {
			t.Fatalf("decode %s: %v", c.body, err)
		}
		id, err := sweep.ID()
		if err != nil {
			t.Fatalf("sweep %s: %v", c.body, err)
		}
		if id != c.id {
			t.Errorf("sweep %s: id = %s, want pinned %s", c.body, id, c.id)
		}
	}
}

// TestSweepIDMatchesSubmit pins that SweepSpec.ID — the routing key
// the cluster layer hashes before forwarding a sweep — is exactly the
// ID SubmitBatch registers, and that it is insensitive to axis order.
func TestSweepIDMatchesSubmit(t *testing.T) {
	defer leakcheck.Check(t)
	id, err := fastSweep().ID()
	if err != nil {
		t.Fatal(err)
	}
	shuffled := fastSweep()
	shuffled.Configs = []ConfigKind{Enhanced, Base}
	shuffled.Seeds = []uint64{2, 1}
	if id2, _ := shuffled.ID(); id2 != id {
		t.Errorf("axis order changed the sweep ID: %s vs %s", id2, id)
	}

	r := New(Options{Workers: 1, TraceCapacity: -1})
	defer r.Close()
	b, _, err := r.SubmitBatch(fastSweep())
	if err != nil {
		t.Fatal(err)
	}
	if b.ID != id {
		t.Errorf("SubmitBatch ID %s != SweepSpec.ID %s", b.ID, id)
	}
	if _, err := (SweepSpec{Workload: "memcached"}).ID(); err == nil {
		t.Error("empty-axis sweep produced an ID, want error")
	}
}

func TestSweepExpand(t *testing.T) {
	specs, err := fastSweep().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 4 {
		t.Fatalf("expanded %d jobs, want 4", len(specs))
	}
	// Config-major order, every spec normalized.
	if specs[0].Config != Base || specs[0].Seed != 1 || specs[3].Config != Enhanced || specs[3].Seed != 2 {
		t.Errorf("expansion order wrong: %+v", specs)
	}
	for _, sp := range specs {
		if sp.Measure != 25 || sp.Scale != 0 {
			t.Errorf("spec not normalized: %+v", sp)
		}
	}

	// Duplicate axis values dedup by canonical key.
	dup := fastSweep()
	dup.Configs = append(dup.Configs, Base)
	dup.Seeds = append(dup.Seeds, 1)
	specs2, err := dup.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs2) != 4 {
		t.Errorf("duplicated axes expanded to %d jobs, want 4", len(specs2))
	}
	if batchID(specs2) != batchID(specs) {
		t.Error("duplicated axes changed the batch ID")
	}

	// Errors: empty axes, oversized expansion, invalid cell.
	bad := []SweepSpec{
		{Workload: "memcached", Configs: nil, Seeds: []uint64{1}},
		{Workload: "memcached", Configs: []ConfigKind{Base}, Seeds: nil},
		{Workload: "memcached", Configs: []ConfigKind{Base}, Seeds: make([]uint64, MaxBatchJobs+1)},
		{Workload: "nginx", Configs: []ConfigKind{Base}, Seeds: []uint64{1}},
		{Workload: "memcached", Configs: []ConfigKind{Base}, Seeds: []uint64{1}, Measure: 5},
	}
	for i, sweep := range bad {
		if _, err := sweep.Expand(); err == nil {
			t.Errorf("bad sweep %d expanded, want error", i)
		}
	}
}

// TestSubmitBatchIdempotent: resubmitting the same sweep returns the
// same batch handle and runs nothing twice; a different sweep gets a
// different batch sharing overlapping jobs.
func TestSubmitBatchIdempotent(t *testing.T) {
	r := New(Options{Workers: 4})
	defer r.Close()
	defer leakcheck.Check(t)

	b1, reused, err := r.SubmitBatch(fastSweep())
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Error("first submission reported reused")
	}
	if err := b1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	b2, reused, err := r.SubmitBatch(fastSweep())
	if err != nil {
		t.Fatal(err)
	}
	if !reused || b2 != b1 {
		t.Errorf("resubmission: reused=%v same=%v, want true/true", reused, b2 == b1)
	}
	if got, ok := r.Batch(b1.ID); !ok || got != b1 {
		t.Errorf("Batch(%q) = %v,%v; want the submitted batch", b1.ID, got, ok)
	}

	// Overlapping sweep: the shared cells coalesce onto done jobs.
	grown := fastSweep()
	grown.Seeds = []uint64{1, 2, 3}
	b3, reused, err := r.SubmitBatch(grown)
	if err != nil {
		t.Fatal(err)
	}
	if reused || b3.ID == b1.ID {
		t.Errorf("grown sweep: reused=%v id=%q, want a new batch", reused, b3.ID)
	}
	if err := b3.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := b3.Status()
	if st.Done != 6 || !st.Completed {
		t.Errorf("grown batch status = %+v, want 6 done", st)
	}
}

// TestBatchStatusAggregates: a completed batch reports per-config
// aggregates over its seeds and a full per-job listing.
func TestBatchStatusAggregates(t *testing.T) {
	r := New(Options{Workers: 4})
	defer r.Close()
	defer leakcheck.Check(t)

	b, _, err := r.SubmitBatch(fastSweep())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := b.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	st := b.Status()
	if st.Total != 4 || st.Done != 4 || st.Failed != 0 || !st.Completed {
		t.Fatalf("status = %+v, want 4/4 done", st)
	}
	if len(st.Jobs) != 4 {
		t.Fatalf("listed %d jobs, want 4", len(st.Jobs))
	}
	for _, row := range st.Jobs {
		if row.State != StateDone || row.ID == "" || row.Error != "" {
			t.Errorf("job row = %+v, want done with id and no error", row)
		}
	}
	if len(st.Aggregate) != 2 {
		t.Fatalf("aggregates for %d configs, want 2", len(st.Aggregate))
	}
	for _, a := range st.Aggregate {
		if a.Jobs != 2 {
			t.Errorf("%s aggregate over %d jobs, want 2", a.Config, a.Jobs)
		}
		if a.MeanCPI <= 0 || a.MeanUS <= 0 || a.P99US < a.MeanUS/2 {
			t.Errorf("%s aggregate implausible: %+v", a.Config, a)
		}
	}
}

// TestBatchPartialFailure: cells already satisfied by prior traffic
// succeed while cells that must simulate under a certain fault fail;
// the batch completes, reports both, and carries each failure's
// error.  Runs under DLSIM_FAULTS ambient injection too: the armed()
// override below replaces the ambient config for its duration.
func TestBatchPartialFailure(t *testing.T) {
	r := New(Options{Workers: 2, Retry: RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond}})
	defer r.Close()
	defer leakcheck.Check(t)

	// Satisfy the base cells first, without injected faults.
	warm := fastSweep()
	warm.Configs = []ConfigKind{Base}
	wb, _, err := r.SubmitBatch(warm)
	if err != nil {
		t.Fatal(err)
	}
	if err := wb.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Every execution now fails deterministically; the enhanced cells
	// must run and therefore fail (retries included), while the base
	// cells coalesce onto the completed jobs untouched.
	armed(t, "runner.execute", faultinject.PointConfig{Mode: faultinject.Error, Prob: 1})
	b, _, err := r.SubmitBatch(fastSweep())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := b.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	st := b.Status()
	if !st.Completed || st.Done != 2 || st.Failed != 2 {
		t.Fatalf("status = %+v, want completed with 2 done + 2 failed", st)
	}
	for _, row := range st.Jobs {
		switch row.Spec.Config {
		case Base:
			if row.State != StateDone || row.Error != "" {
				t.Errorf("base cell %+v, want done", row)
			}
		case Enhanced:
			if row.State != StateFailed || row.Error == "" {
				t.Errorf("enhanced cell %+v, want failed with error", row)
			}
		}
	}
	// Failed cells keep the batch's aggregates to the successful
	// config only.
	if len(st.Aggregate) != 1 || st.Aggregate[0].Config != Base {
		t.Errorf("aggregate = %+v, want base only", st.Aggregate)
	}
}

// TestBatchRetention: the batch index is LRU-bounded; evicted batches
// answer not-found while their jobs stay individually addressable.
func TestBatchRetention(t *testing.T) {
	r := New(Options{Workers: 2, MaxBatches: 2})
	defer r.Close()

	ids := make([]string, 3)
	for i := range ids {
		sweep := fastSweep()
		sweep.Seeds = []uint64{uint64(100 + i)}
		b, _, err := r.SubmitBatch(sweep)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		ids[i] = b.ID
	}
	if _, ok := r.Batch(ids[0]); ok {
		t.Error("oldest batch survived past MaxBatches")
	}
	for _, id := range ids[1:] {
		if _, ok := r.Batch(id); !ok {
			t.Errorf("batch %q evicted within the bound", id)
		}
	}
}
