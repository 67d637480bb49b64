package runner

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
)

// fastSpec is a cheap job for pool-mechanics tests.
func fastSpec(seed uint64) JobSpec {
	return JobSpec{Workload: "memcached", Config: Base, Seed: seed, Warm: 5, Measure: 25}
}

func TestSpecNormalizeAndKey(t *testing.T) {
	// Defaults resolve from the registry and scale folds into Measure.
	n, err := JobSpec{Workload: "apache", Config: Base, Seed: 1}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Warm != 80 || n.Measure != 400 || n.Scale != 0 {
		t.Errorf("normalized = %+v, want warm=80 measure=400 scale=0", n)
	}
	// Scale 0.25 of 400 = 100; tiny scales clamp to 20 (the Suite
	// clamp the runner must mirror).
	n, _ = JobSpec{Workload: "apache", Config: Base, Seed: 1, Scale: 0.25}.Normalize()
	if n.Measure != 100 {
		t.Errorf("scaled measure = %d, want 100", n.Measure)
	}
	n, _ = JobSpec{Workload: "apache", Config: Base, Seed: 1, Scale: 0.001}.Normalize()
	if n.Measure != 20 {
		t.Errorf("clamped measure = %d, want 20", n.Measure)
	}

	// Specs denoting the same simulation share a key...
	k1, _ := JobSpec{Workload: "apache", Config: Base, Seed: 1, Scale: 1}.Key()
	k2, _ := JobSpec{Workload: "apache", Config: Base, Seed: 1, Measure: 400, Warm: 80}.Key()
	if k1 != k2 {
		t.Errorf("equivalent specs keyed differently:\n%s\n%s", k1, k2)
	}
	// ...and different simulations do not.
	k3, _ := JobSpec{Workload: "apache", Config: Enhanced, Seed: 1}.Key()
	k4, _ := JobSpec{Workload: "apache", Config: Base, Seed: 2}.Key()
	if k1 == k3 || k1 == k4 || k3 == k4 {
		t.Errorf("distinct specs share a key: %q %q %q", k1, k3, k4)
	}
	if idFromKey(k1) == idFromKey(k3) {
		t.Error("distinct keys share an ID")
	}
}

// TestSpecBudgetOverflowRejected pins the overflow fix: a scaled
// budget past the int range used to wrap negative and clamp to a
// MinMeasure job, cached under a key the caller never asked for.  It
// is an error now, and one bad cell rejects a sweep whole.
func TestSpecBudgetOverflowRejected(t *testing.T) {
	for _, spec := range []JobSpec{
		{Workload: "apache", Config: Base, Seed: 1, Scale: 1e18},
		{Workload: "apache", Config: Base, Seed: 1, Measure: 1 << 62, Scale: 4},
		{Workload: "apache", Config: Base, Seed: 1, Measure: math.MaxInt},
		{Workload: "memcached", Config: Base, Seed: 1, Measure: 600, SampleWindows: 8, SampleWarmup: math.MaxInt},
	} {
		if n, err := spec.Normalize(); err == nil {
			t.Errorf("%+v normalized to measure=%d, want an error", spec, n.Measure)
		}
	}
	sweep := SweepSpec{Workload: "apache", Configs: []ConfigKind{Base}, Seeds: []uint64{1}, Scale: 1e18}
	if specs, err := sweep.Expand(); err == nil {
		t.Errorf("overflowing sweep expanded to %+v, want an error", specs)
	}
	// A huge budget that fits still normalises as asked.
	if n, err := (JobSpec{Workload: "apache", Config: Base, Seed: 1, Measure: 1 << 62, Scale: 1}).Normalize(); err != nil || n.Measure != 1<<62 {
		t.Errorf("measure=2^62 normalized to %d, %v; want 2^62", n.Measure, err)
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []JobSpec{
		{Workload: "nginx", Config: Base, Seed: 1},
		{Workload: "apache", Config: "turbo", Seed: 1},
		{Workload: "apache", Config: Base, Warm: -1},
	}
	for _, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", spec)
		}
		if _, _, err := New(Options{Workers: 1}).Submit(spec); err == nil {
			t.Errorf("Submit(%+v) = nil, want error", spec)
		}
	}
}

// TestSingleflightDedup submits the same spec many times concurrently
// and asserts the simulation ran exactly once with every caller seeing
// identical results.
func TestSingleflightDedup(t *testing.T) {
	r := New(Options{Workers: 4})
	defer r.Close()
	spec := fastSpec(3)

	const callers = 8
	results := make([]Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := r.Run(context.Background(), spec)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()

	st := r.Stats()
	if st.CacheMisses != 1 {
		t.Errorf("cache misses = %d, want 1 (exactly one simulation)", st.CacheMisses)
	}
	if st.CacheHits+st.Deduped != callers-1 {
		t.Errorf("hits+deduped = %d, want %d", st.CacheHits+st.Deduped, callers-1)
	}
	if st.Completed != 1 {
		t.Errorf("completed = %d, want 1", st.Completed)
	}
	for i := 1; i < callers; i++ {
		if results[i].Counters != results[0].Counters {
			t.Errorf("caller %d saw different counters", i)
		}
		if !results[i].CacheHit {
			// At most one caller (the creator) may report a miss; with
			// 8 racing callers at least 7 reused.  The creator is the
			// only one allowed CacheHit == false.
			if results[i].Key != results[0].Key {
				t.Errorf("caller %d: key mismatch", i)
			}
		}
	}
	// Resubmission after completion is a cache hit with the same data.
	res, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Error("resubmission: CacheHit = false, want true")
	}
	if res.Counters != results[0].Counters {
		t.Error("resubmission returned different counters")
	}
}

// inlineRun replays the historical sequential Suite sequence for one
// spec: generate, link, warm up, measure — no pool, no cache.  The
// runner must be bit-identical to this.
func inlineRun(t *testing.T, spec JobSpec) Result {
	t.Helper()
	n, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	ws, _ := WorkloadByName(n.Workload)
	cfg, err := n.Config.Config(n.Seed)
	if err != nil {
		t.Fatal(err)
	}
	w := ws.Gen(n.Seed)
	sys, err := w.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := workload.NewDriver(w, sys, n.Seed+17)
	if err := d.Warmup(n.Warm); err != nil {
		t.Fatal(err)
	}
	samp, err := d.Run(n.Measure)
	if err != nil {
		t.Fatal(err)
	}
	return Result{Counters: sys.Counters(), Samples: samp, Trampolines: sys.LifetimeRecorder().Summary()}
}

// TestDeterminismUnderParallelism is the DESIGN.md determinism
// invariant surviving the worker pool: N distinct jobs submitted at
// once produce counters and latency samples bit-identical to an
// inline sequential run of the same specs.
func TestDeterminismUnderParallelism(t *testing.T) {
	specs := []JobSpec{
		{Workload: "memcached", Config: Base, Seed: 7, Warm: 5, Measure: 30},
		{Workload: "memcached", Config: Enhanced, Seed: 7, Warm: 5, Measure: 30},
		{Workload: "firefox", Config: Base, Seed: 7, Warm: 5, Measure: 25},
		{Workload: "firefox", Config: Enhanced, Seed: 7, Warm: 5, Measure: 25},
	}

	r := New(Options{Workers: 4})
	defer r.Close()
	parallel, err := r.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}

	for i, spec := range specs {
		seq := inlineRun(t, spec)
		got := parallel[i]
		if got.Counters != seq.Counters {
			t.Errorf("%s/%s: parallel counters differ from sequential:\n got %+v\nwant %+v",
				spec.Workload, spec.Config, got.Counters, seq.Counters)
		}
		if !reflect.DeepEqual(got.Trampolines, seq.Trampolines) {
			t.Errorf("%s/%s: trampoline summaries differ:\n got %+v\nwant %+v",
				spec.Workload, spec.Config, got.Trampolines, seq.Trampolines)
		}
		for class, want := range seq.Samples {
			gotS, ok := got.Samples[class]
			if !ok {
				t.Errorf("%s/%s: class %s missing", spec.Workload, spec.Config, class)
				continue
			}
			wv, gv := want.Values(), gotS.Values()
			if len(wv) != len(gv) {
				t.Errorf("%s/%s %s: %d samples, want %d", spec.Workload, spec.Config, class, len(gv), len(wv))
				continue
			}
			for k := range wv {
				if wv[k] != gv[k] {
					t.Errorf("%s/%s %s[%d]: %v != %v", spec.Workload, spec.Config, class, k, gv[k], wv[k])
					break
				}
			}
		}
	}
}

// TestSameSpecConcurrentBitIdentical submits one spec twice
// concurrently and checks both counters match a sequential rerun.
func TestSameSpecConcurrentBitIdentical(t *testing.T) {
	spec := fastSpec(11)
	r := New(Options{Workers: 2})
	defer r.Close()

	var a, b Result
	var errA, errB error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); a, errA = r.Run(context.Background(), spec) }()
	go func() { defer wg.Done(); b, errB = r.Run(context.Background(), spec) }()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if a.Counters != b.Counters {
		t.Error("concurrent submissions of one spec returned different counters")
	}
	seq := inlineRun(t, spec)
	if a.Counters != seq.Counters {
		t.Errorf("pooled counters differ from sequential:\n got %+v\nwant %+v", a.Counters, seq.Counters)
	}
}

func TestJobTimeout(t *testing.T) {
	r := New(Options{Workers: 1, JobTimeout: time.Nanosecond})
	defer r.Close()
	_, err := r.Run(context.Background(), fastSpec(1))
	if err == nil {
		t.Fatal("want timeout error, got nil")
	}
	if st := r.Stats(); st.Failed != 1 {
		t.Errorf("failed = %d, want 1", st.Failed)
	}
}

func TestWaitCancellation(t *testing.T) {
	r := New(Options{Workers: 1})
	defer r.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Run(ctx, fastSpec(2)); err == nil {
		t.Fatal("want context error, got nil")
	}
}

func TestCloseRejectsAndUnblocks(t *testing.T) {
	r := New(Options{Workers: 1})
	r.Close()
	if _, _, err := r.Submit(fastSpec(1)); err == nil {
		t.Error("Submit after Close = nil, want error")
	}
}

func TestStatsLatency(t *testing.T) {
	r := New(Options{Workers: 2})
	defer r.Close()
	specs := []JobSpec{fastSpec(21), fastSpec(22), fastSpec(23)}
	if _, err := r.RunAll(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Completed != 3 {
		t.Fatalf("completed = %d, want 3", st.Completed)
	}
	if st.JobP50MS <= 0 || st.JobP99MS < st.JobP50MS || st.JobMeanMS <= 0 {
		t.Errorf("latency stats inconsistent: %+v", st)
	}
	if st.Workers != 2 {
		t.Errorf("workers = %d, want 2", st.Workers)
	}
	if st.Queued != 0 || st.Running != 0 {
		t.Errorf("idle pool reports queued=%d running=%d", st.Queued, st.Running)
	}
}

func TestJobLookupByID(t *testing.T) {
	r := New(Options{Workers: 1})
	defer r.Close()
	j, _, err := r.Submit(fastSpec(31))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := r.Job(j.ID)
	if !ok || got != j {
		t.Fatalf("Job(%q) = %v, %v", j.ID, got, ok)
	}
	if _, ok := r.Job("no-such-id"); ok {
		t.Error("lookup of unknown ID succeeded")
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if j.State() != StateDone {
		t.Errorf("state = %s, want done", j.State())
	}
	if _, done := j.Result(); !done {
		t.Error("Result() not ready after Wait")
	}
	if j.Err() != nil {
		t.Errorf("Err() = %v on a done job", j.Err())
	}
}
