package runner

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/pool"
	"repro/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestStoreWarmStart is the restart contract: a result computed by
// one process generation is a cache hit in the next — served from
// disk, never recomputed, with bit-identical counters.
func TestStoreWarmStart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	spec := fastSpec(7)

	st1 := openStore(t, dir)
	r1 := New(Options{Workers: 2, Store: st1})
	first, err := r1.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	r1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh runner over a reopened store: the same spec must come
	// back reused (a store hit), not recomputed.
	st2 := openStore(t, dir)
	r2 := New(Options{Workers: 2, Store: st2})
	defer r2.Close()
	j, reused, err := r2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reused {
		t.Fatal("warm-start Submit reused=false; job would recompute")
	}
	res, ok := j.Result()
	if !ok {
		t.Fatal("restored job has no result")
	}
	if !res.Restored {
		t.Error("restored result not flagged Restored")
	}
	if first.ID != res.ID || first.Key != res.Key {
		t.Fatalf("identity drifted across restart: %s/%s vs %s/%s", first.ID, first.Key, res.ID, res.Key)
	}
	// Bit-identical: every architectural counter, the derived PKI
	// decomposition, and the trampoline summaries survive the
	// JSON round trip exactly.
	if !reflect.DeepEqual(first.Counters, res.Counters) {
		t.Errorf("counters drifted:\nlive:     %+v\nrestored: %+v", first.Counters, res.Counters)
	}
	if !reflect.DeepEqual(first.PKI, res.PKI) {
		t.Errorf("PKI drifted:\nlive:     %+v\nrestored: %+v", first.PKI, res.PKI)
	}
	if first.DistinctTrampolines() != res.DistinctTrampolines() {
		t.Errorf("distinct trampolines: live %d, restored %d", first.DistinctTrampolines(), res.DistinctTrampolines())
	}
	if first.LibCalls() != res.LibCalls() {
		t.Errorf("lib calls: live %d, restored %d", first.LibCalls(), res.LibCalls())
	}
	if hits := st2.Stats().Hits; hits == 0 {
		t.Error("store recorded no hits during warm start")
	}
	// The restored job is a real cache entry: a second submit
	// coalesces in memory without touching the store again.
	before := st2.Stats().Hits
	if _, reused, _ := r2.Submit(spec); !reused {
		t.Error("second submit after restore missed the in-memory cache")
	}
	if st2.Stats().Hits != before {
		t.Error("second submit re-read the store instead of the memory tier")
	}
}

// TestStoreDemotion pins the eviction semantics change: with a store
// attached, LRU eviction demotes results to disk instead of dropping
// them — the job stays addressable.
func TestStoreDemotion(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	st := openStore(t, dir)
	r := New(Options{Workers: 2, MaxRetained: 1, Store: st})
	defer r.Close()

	a, err := r.Run(ctx, fastSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(ctx, fastSpec(2)); err != nil {
		t.Fatal(err)
	}
	// Capacity 1: job A has been evicted from memory by now.
	j, ok := r.Job(a.ID)
	if !ok {
		t.Fatal("demoted job not addressable via Job()")
	}
	res, ok := j.Result()
	if !ok || !res.Restored {
		t.Fatalf("demoted job result: ok=%v restored=%v", ok, res != nil && res.Restored)
	}
	if !reflect.DeepEqual(a.Counters, res.Counters) {
		t.Errorf("demoted counters drifted:\nlive:     %+v\nrestored: %+v", a.Counters, res.Counters)
	}
}

// TestStoreBatchPersistRestore: a completed batch's aggregate
// snapshot is written through and is readable — with identical
// totals and aggregates — from a later process generation.
func TestStoreBatchPersistRestore(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	st1 := openStore(t, dir)
	r1 := New(Options{Workers: 2, Store: st1})
	sweep := SweepSpec{Workload: "memcached", Configs: []ConfigKind{Base, Enhanced}, Seeds: []uint64{1, 2}, Warm: 5, Measure: 25}
	b, _, err := r1.SubmitBatch(sweep)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	want := b.Status()
	// The batch snapshot persists asynchronously once the last job
	// completes; wait for it to land.
	deadline := time.Now().Add(5 * time.Second)
	for !st1.Has(b.ID) {
		if time.Now().After(deadline) {
			t.Fatal("batch snapshot never reached the store")
		}
		time.Sleep(5 * time.Millisecond)
	}
	r1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	r2 := New(Options{Workers: 2, Store: st2})
	defer r2.Close()
	rb, ok := r2.Batch(b.ID)
	if !ok {
		t.Fatal("batch not restorable from the store")
	}
	got := rb.Status()
	if got.ID != want.ID || got.Total != want.Total || got.Done != want.Done ||
		got.Failed != want.Failed || !got.Completed {
		t.Fatalf("restored status drifted:\nlive:     %+v\nrestored: %+v", want, got)
	}
	if !reflect.DeepEqual(want.Aggregate, got.Aggregate) {
		t.Errorf("restored aggregates drifted:\nlive:     %+v\nrestored: %+v", want.Aggregate, got.Aggregate)
	}
	if len(rb.Specs) != len(b.Specs) {
		t.Errorf("restored specs %d, want %d", len(rb.Specs), len(b.Specs))
	}
}

// TestStoreDroppedJobRecomputes: a job that size-bounded compaction
// dropped after the memory tier evicted it cannot be looked up, and
// resubmitting its spec recomputes it under the same ID with the same
// counters.
func TestStoreDroppedJobRecomputes(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	// A store this small cannot hold even one persisted result, so
	// every demotion is eventually dropped by compaction.
	st, err := store.Open(dir, store.Options{MaxBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	r := New(Options{Workers: 2, MaxRetained: 1, Store: st})
	defer r.Close()

	a, err := r.Run(ctx, fastSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(2); seed < 6; seed++ {
		if _, err := r.Run(ctx, fastSpec(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if st.Has(a.ID) {
		t.Skip("store retained A despite the 1KB bound; cannot exercise drop")
	}
	if _, ok := r.Job(a.ID); ok {
		t.Fatal("store-dropped job still addressable")
	}
	re, reused, err := r.Submit(fastSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if reused || re.ID != a.ID {
		t.Fatalf("resubmitted dropped job: reused=%v id=%s, want a fresh run under %s", reused, re.ID, a.ID)
	}
	res, err := re.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Counters, res.Counters) {
		t.Errorf("recomputed counters drifted:\nfirst:      %+v\nrecomputed: %+v", a.Counters, res.Counters)
	}
}

// TestRestoredSweepMatchesLive: a sweep resubmitted to a restarted
// runner on the same store is served from restored jobs, and its
// status must be the live batch's — sampled roll-up and merged
// timelines included — as must the snapshot the resubmission writes
// over the stored one.
func TestRestoredSweepMatchesLive(t *testing.T) {
	cases := []struct {
		name  string
		sweep SweepSpec
	}{
		{"sampled", SweepSpec{Workload: "memcached", Configs: []ConfigKind{Base, Enhanced}, Seeds: []uint64{1, 2},
			Warm: 5, Measure: 160, SampleWindows: 4}},
		{"exact", SweepSpec{Workload: "memcached", Configs: []ConfigKind{Base, Enhanced}, Seeds: []uint64{1},
			Warm: 5, Measure: 40}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			live := runSweepToSnapshot(t, dir, tc.sweep)
			for _, a := range live.Aggregate {
				if tc.sweep.SampleWindows > 0 && a.SampledJobs != len(tc.sweep.Seeds) {
					t.Fatalf("live %s row rolled up %d sampled jobs, want %d", a.Config, a.SampledJobs, len(tc.sweep.Seeds))
				}
			}
			if tc.sweep.SampleWindows == 0 && len(live.Timelines) != len(tc.sweep.Configs) {
				t.Fatalf("live batch merged %d timelines, want %d", len(live.Timelines), len(tc.sweep.Configs))
			}
			restored := runSweepToSnapshot(t, dir, tc.sweep)
			want := statusJSON(t, live)
			if got := statusJSON(t, restored); got != want {
				t.Errorf("resubmitted batch differs from the live one:\nlive     %s\nrestored %s", want, got)
			}
			st := openStore(t, dir)
			payload, ok, err := st.Get(restored.ID)
			if !ok || err != nil {
				t.Fatalf("no stored snapshot for %s (err %v)", restored.ID, err)
			}
			pb, err := decodeBatch(payload)
			if err != nil {
				t.Fatal(err)
			}
			if got := statusJSON(t, pb.Status); got != want {
				t.Errorf("stored snapshot differs from the live batch:\nlive   %s\nstored %s", want, got)
			}
		})
	}
}

// runSweepToSnapshot runs the sweep on a fresh runner over the store
// in dir, drains it so the batch snapshot lands, closes both, and
// returns the batch's final status.
func runSweepToSnapshot(t *testing.T, dir string, sweep SweepSpec) BatchStatus {
	t.Helper()
	ctx := context.Background()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	r := New(Options{Workers: 2, Store: st})
	defer r.Close()
	b, _, err := r.SubmitBatch(sweep)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	status := b.Status()
	if status.Done != status.Total {
		t.Fatalf("batch done %d of %d: %+v", status.Done, status.Total, status.Jobs)
	}
	if n := r.Drain(ctx); n != 0 {
		t.Fatalf("drain left %d jobs", n)
	}
	return status
}

// statusJSON renders the parts of a batch status computed from its
// jobs' results: the per-config aggregates and merged timelines.
func statusJSON(t *testing.T, st BatchStatus) string {
	t.Helper()
	b, err := json.Marshal([]any{st.Aggregate, st.Timelines})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDrainWritesBatchSnapshots: a clean Drain returns only once every
// registered batch's final snapshot is in the store, so closing the
// store right after it (as dlsimd's shutdown does) loses none.
func TestDrainWritesBatchSnapshots(t *testing.T) {
	const trials = 60
	ctx := context.Background()
	shared := pool.New(pool.Options{})
	sweep := SweepSpec{Workload: "memcached", Configs: []ConfigKind{Base, Enhanced}, Seeds: []uint64{1}, Warm: 5, Measure: 20}
	missing := 0
	for i := 0; i < trials; i++ {
		dir := t.TempDir()
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		r := New(Options{Workers: 2, Store: st, Pool: shared})
		b, _, err := r.SubmitBatch(sweep)
		if err != nil {
			t.Fatal(err)
		}
		if n := r.Drain(ctx); n != 0 {
			t.Fatalf("trial %d: drain left %d jobs", i, n)
		}
		r.Close()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		reopened, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reopened.Has(b.ID) {
			missing++
		}
		reopened.Close()
	}
	if missing > 0 {
		t.Errorf("batch snapshot missing after a clean drain in %d of %d trials", missing, trials)
	}
}
