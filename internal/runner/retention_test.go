package runner

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/pool"
	"repro/internal/workload"
)

// TestRetentionEvictsLRU pins the eviction order and the recency
// refresh: with capacity 2, re-reading job A makes B the eviction
// victim when C arrives.
func TestRetentionEvictsLRU(t *testing.T) {
	r := New(Options{Workers: 2, MaxRetained: 2})
	defer r.Close()
	ctx := context.Background()

	runOne := func(seed uint64) *Job {
		j, _, err := r.Submit(fastSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		return j
	}
	a, b := runOne(1), runOne(2)
	// Refresh A: it becomes most recent, leaving B as the LRU victim.
	if _, reused, err := r.Submit(fastSpec(1)); err != nil || !reused {
		t.Fatalf("resubmit A: reused=%v err=%v, want cache hit", reused, err)
	}
	runOne(3)

	if _, ok := r.Job(a.ID); !ok {
		t.Error("A was evicted despite its recency refresh")
	}
	if _, ok := r.Job(b.ID); ok {
		t.Error("B still present; LRU should have evicted it")
	}
	if !r.Evicted(b.ID) {
		t.Error("Evicted(B) = false, want true")
	}
	if r.Evicted(a.ID) {
		t.Error("Evicted(A) = true for a retained job")
	}
	st := r.Stats()
	if st.Retained != 2 {
		t.Errorf("Retained = %d, want 2", st.Retained)
	}
	if st.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", st.Evictions)
	}

	// A resubmission of the evicted spec recomputes under the same
	// content-derived ID, which is then no longer "gone".
	nb := runOne(2)
	if nb.ID != b.ID {
		t.Fatalf("recomputed job ID %s != original %s", nb.ID, b.ID)
	}
	if r.Evicted(b.ID) {
		t.Error("Evicted(B) still true after B was recomputed")
	}
}

// TestRetentionPinsInFlight floods the cache far past MaxRetained
// while a job is deterministically held mid-execution (a Hang fault
// released by Reset) and asserts the in-flight job is never evicted.
func TestRetentionPinsInFlight(t *testing.T) {
	r := New(Options{Workers: 2, MaxRetained: 2})
	defer r.Close()
	ctx := context.Background()

	// Hang exactly one execution: the held job is the only one
	// submitted while the point is armed, and Count caps the fault so
	// the flood below passes through.
	faultinject.Enable("runner.execute", faultinject.PointConfig{
		Mode: faultinject.Hang, Prob: 1, Count: 1,
	})
	defer faultinject.Reset()
	held, _, err := r.Submit(JobSpec{Workload: "memcached", Config: Enhanced, Seed: 99, Warm: 5, Measure: 25})
	if err != nil {
		t.Fatal(err)
	}
	for faultinject.Injections("runner.execute") == 0 {
		time.Sleep(time.Millisecond)
	}

	for seed := uint64(1); seed <= 20; seed++ {
		if _, err := r.Run(ctx, fastSpec(seed)); err != nil {
			t.Fatal(err)
		}
		if _, ok := r.Job(held.ID); !ok {
			t.Fatalf("in-flight job evicted after %d fast jobs (state %s)", seed, held.State())
		}
		if r.Evicted(held.ID) {
			t.Fatal("in-flight job ID marked evicted")
		}
	}

	faultinject.Reset() // release the hang
	if _, err := held.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Job(held.ID); !ok {
		t.Error("held job unreachable immediately after completing")
	}
}

// TestRetentionSoak is the regression test for the unbounded job-map
// leak: many more distinct specs than MaxRetained flow through the
// runner, and the lookup maps and heap must stay bounded by the
// retention limit rather than by submission history.
func TestRetentionSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short")
	}
	const maxRetained = 64
	// Default size keeps the tier-1 suite fast; the full acceptance
	// soak (DLSIM_SOAK_JOBS=10000) exercises ~150 cache generations.
	jobs := 600
	if s := os.Getenv("DLSIM_SOAK_JOBS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < maxRetained {
			t.Fatalf("bad DLSIM_SOAK_JOBS %q", s)
		}
		jobs = n
	}
	r := New(Options{Workers: runtime.NumCPU(), MaxRetained: maxRetained})
	defer r.Close()

	var after runtime.MemStats
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	for batch := 0; batch < jobs; batch += 50 {
		n := 50
		if jobs-batch < n {
			n = jobs - batch
		}
		handles := make([]*Job, 0, n)
		for i := 0; i < n; i++ {
			j, _, err := r.Submit(fastSpec(uint64(1000 + batch + i)))
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, j)
		}
		for _, j := range handles {
			// A failed job would complete and be retained just like
			// a successful one; only submission errors above are
			// fatal.
			<-j.Done()
		}
	}

	r.mu.Lock()
	nKey, nID, nLRU, nEvicted := len(r.byKey), len(r.byID), r.lru.Len(), len(r.evicted)
	r.mu.Unlock()
	if nKey > maxRetained || nID > maxRetained || nLRU > maxRetained {
		t.Errorf("maps after soak: byKey=%d byID=%d lru=%d, want <= %d", nKey, nID, nLRU, maxRetained)
	}
	if cap := evictedMemory(maxRetained); nEvicted > cap {
		t.Errorf("evicted-ID memory %d exceeds bound %d", nEvicted, cap)
	}
	st := r.Stats()
	if st.Retained != maxRetained {
		t.Errorf("Retained = %d, want %d", st.Retained, maxRetained)
	}
	if want := uint64(jobs - maxRetained); st.Evictions != want {
		t.Errorf("Evictions = %d, want %d", st.Evictions, want)
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	// A retained result holds counters, samples and a trampoline
	// summary, so a bounded cache of 64 stays well under this ceiling;
	// the map sizes above are the exact bound.
	const heapCeiling = 192 << 20
	if growth := int64(after.HeapAlloc) - int64(before.HeapAlloc); growth > heapCeiling {
		t.Errorf("heap grew %d bytes over the soak, want <= %d", growth, int64(heapCeiling))
	}
}

// TestBatchHandlesPinNoWorkloads: a batch handle keeps its jobs'
// results long after the job cache has evicted them, so anything a
// Result points at lives as long as the handle.  Fresh-seed batches on
// a runner that retains one job, over a pool that holds one workload,
// must leave every earlier generated bundle unreachable while all the
// handles stay retained, and the pool must hold master images only for
// the workload it still caches.
func TestBatchHandlesPinNoWorkloads(t *testing.T) {
	const batches = 4
	p := pool.New(pool.Options{MaxWorkloads: 1})
	r := New(Options{Workers: 2, MaxRetained: 1, Pool: p})
	defer r.Close()
	ctx := context.Background()

	var freed atomic.Int32
	handles := make([]*Batch, 0, batches)
	for i := 0; i < batches; i++ {
		seed := uint64(700 + i)
		b, _, err := r.SubmitBatch(SweepSpec{Workload: "memcached", Configs: []ConfigKind{Base, Enhanced},
			Seeds: []uint64{seed}, Warm: 5, Measure: 25})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		w, hit := p.Workload("memcached", workload.Memcached, seed)
		if !hit {
			t.Fatalf("batch %d: the pool does not hold the bundle its jobs just ran", i)
		}
		runtime.SetFinalizer(w, func(*workload.Workload) { freed.Add(1) })
		handles = append(handles, b)
	}

	// The pool still caches the last bundle; the earlier ones must go.
	for deadline := time.Now().Add(10 * time.Second); freed.Load() < batches-1 && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := freed.Load(); got < batches-1 {
		t.Errorf("%d of %d earlier workload bundles collected; retained batch handles pin the rest", got, batches-1)
	}
	if st := p.Stats(); st.Workloads != 1 || st.Images != 1 {
		t.Errorf("pool holds %d workloads and %d images, want 1 and 1", st.Workloads, st.Images)
	}
	for i, b := range handles {
		if st := b.Status(); st.Done != 2 || len(st.Aggregate) != 2 {
			t.Errorf("batch %d: done=%d aggregates=%d, want 2 and 2", i, st.Done, len(st.Aggregate))
		}
	}
}
