package runner

import (
	"context"
	"sync"
	"testing"

	"repro/internal/pool"
)

// TestPooledBitIdenticalToUnpooled is the tentpole invariant at the
// runner layer: the same specs run through the artifact pool and with
// pooling disabled produce bit-identical counters and latencies.
func TestPooledBitIdenticalToUnpooled(t *testing.T) {
	specs := []JobSpec{
		{Workload: "memcached", Config: Base, Seed: 4, Warm: 5, Measure: 30},
		{Workload: "memcached", Config: Enhanced, Seed: 4, Warm: 5, Measure: 30},
		{Workload: "memcached", Config: Enhanced, Seed: 4, Warm: 5, Measure: 60},
	}

	pooled := New(Options{Workers: 2})
	defer pooled.Close()
	unpooled := New(Options{Workers: 2, DisablePool: true})
	defer unpooled.Close()
	if pooled.ArtifactPool() == nil {
		t.Fatal("default runner has no artifact pool")
	}
	if unpooled.ArtifactPool() != nil {
		t.Fatal("DisablePool runner still has a pool")
	}

	pr, err := pooled.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	ur, err := unpooled.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if pr[i].Counters != ur[i].Counters {
			t.Errorf("spec %d: pooled counters diverge from unpooled:\npooled   %+v\nunpooled %+v",
				i, pr[i].Counters, ur[i].Counters)
		}
		for class, ps := range pr[i].Samples {
			us, ok := ur[i].Samples[class]
			if !ok {
				t.Errorf("spec %d: class %q missing unpooled", i, class)
				continue
			}
			pv, uv := ps.Values(), us.Values()
			if len(pv) != len(uv) {
				t.Errorf("spec %d %q: %d vs %d samples", i, class, len(pv), len(uv))
				continue
			}
			for k := range pv {
				if pv[k] != uv[k] {
					t.Errorf("spec %d %q: sample %d = %v pooled, %v unpooled", i, class, k, pv[k], uv[k])
					break
				}
			}
		}
	}

	// All three jobs share one bundle; base and enhanced share link
	// options, so one master serves all three (two forks are hits).
	// Each job runs once, so the counts are exact under any ambient
	// delay injection too.
	st := pooled.ArtifactPool().Stats()
	if st.WorkloadMisses != 1 {
		t.Errorf("workload generated %d times, want 1", st.WorkloadMisses)
	}
	if st.ImageMisses != 1 || st.ImageHits != 2 {
		t.Errorf("image misses=%d hits=%d, want 1 miss + 2 hits", st.ImageMisses, st.ImageHits)
	}

	// Wall split: both components populated, Wall is their sum.
	for i, res := range pr {
		if res.SetupWall <= 0 || res.MeasureWall <= 0 {
			t.Errorf("spec %d: SetupWall=%v MeasureWall=%v, want both > 0", i, res.SetupWall, res.MeasureWall)
		}
		if res.Wall != res.SetupWall+res.MeasureWall {
			t.Errorf("spec %d: Wall=%v != SetupWall+MeasureWall=%v", i, res.Wall, res.SetupWall+res.MeasureWall)
		}
	}
}

// TestConcurrentPooledJobs fans many jobs that share one pooled master
// across the worker pool concurrently (run with -race) and checks each
// against its unpooled twin.
func TestConcurrentPooledJobs(t *testing.T) {
	pooled := New(Options{Workers: 4})
	defer pooled.Close()
	unpooled := New(Options{Workers: 4, DisablePool: true})
	defer unpooled.Close()

	specs := make([]JobSpec, 6)
	for i := range specs {
		specs[i] = JobSpec{Workload: "memcached", Config: Base, Seed: 11, Warm: 5, Measure: 25 + 5*i}
	}
	var wg sync.WaitGroup
	pr := make([]Result, len(specs))
	errs := make([]error, len(specs))
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec JobSpec) {
			defer wg.Done()
			pr[i], errs[i] = pooled.Run(context.Background(), spec)
		}(i, spec)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	ur, err := unpooled.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if pr[i].Counters != ur[i].Counters {
			t.Errorf("job %d: pooled counters diverge from unpooled", i)
		}
	}
	if st := pooled.ArtifactPool().Stats(); st.WorkloadMisses != 1 || st.ImageMisses != 1 {
		t.Errorf("concurrent jobs rebuilt artifacts: %+v, want 1 workload miss and 1 image miss", st)
	}
}

// TestSweepReusesBundlesWithinBound: a 2-worker runner's pool holds
// pool.BundlesPerWorker × 2 = 4 bundles, a tenth of the seeds of a jit
// Base+Enhanced sweep over 40 seeds.  A seed's Enhanced job forks the
// master its Base job linked only if it starts before four newer
// bundles push that seed's out, so SubmitBatch must admit the sweep
// seed-major, while the batch keeps its expansion order, and the
// runner must start jobs in admission order.  Each seed's partner is
// then next in the queue, so every sweep serves exactly half its
// images, 40 of 80, from cache; a sweep admitted config-major gets
// almost none.  The pool must never hold more than 4 bundles.  The
// sweep runs five times on fresh runners, and each must hit exactly.
func TestSweepReusesBundlesWithinBound(t *testing.T) {
	const workers, seeds, rounds = 2, 40, 5
	bound := pool.BundlesPerWorker * workers
	sweep := SweepSpec{Workload: "jit", Configs: []ConfigKind{Base, Enhanced}, Measure: MinMeasure}
	for s := uint64(1); s <= seeds; s++ {
		sweep.Seeds = append(sweep.Seeds, s)
	}
	for round := 0; round < rounds; round++ {
		r := New(Options{Workers: workers})
		b, _, err := r.SubmitBatch(sweep)
		if err != nil {
			r.Close()
			t.Fatal(err)
		}
		// Read the bundle gauge as each job finishes.
		ap, most := r.ArtifactPool(), 0
		for _, j := range b.Jobs() {
			<-j.Done()
			most = max(most, ap.Stats().Workloads)
		}
		r.Close()
		st := ap.Stats()
		t.Logf("round %d: %d of %d images from cache, at most %d bundles held", round, st.ImageHits, st.ImageHits+st.ImageMisses, most)
		if st.ImageHits != seeds || st.ImageMisses != seeds {
			t.Errorf("round %d: pool served %d of %d images from cache, want %d of %d", round, st.ImageHits, st.ImageHits+st.ImageMisses, seeds, 2*seeds)
		}
		if most > bound {
			t.Errorf("round %d: pool held %d bundles, bound %d", round, most, bound)
		}
		bs := b.Status()
		if bs.Done != 2*seeds {
			t.Errorf("round %d: sweep finished %d of %d jobs", round, bs.Done, 2*seeds)
		}
		if round > 0 {
			continue
		}
		// Jobs are admitted (their traces started) seed-major; the
		// handle and its status rows keep the config-major expansion.
		for i, tr := range r.Tracer().Traces() {
			seed, cfg := i/2, i%2
			if want := b.Jobs()[cfg*seeds+seed]; tr.ID() != want.ID {
				t.Fatalf("admission %d is job %s, want %s seed %d", i, tr.ID(), want.Spec.Config, want.Spec.Seed)
			}
		}
		for i, row := range bs.Jobs {
			if cfg, seed := sweep.Configs[i/seeds], sweep.Seeds[i%seeds]; row.Spec.Config != cfg || row.Spec.Seed != seed {
				t.Fatalf("status row %d is %s seed %d, want %s seed %d", i, row.Spec.Config, row.Spec.Seed, cfg, seed)
			}
		}
	}
}

// TestNormalizeRejectsExplicitSubMinimum pins the Normalize contract:
// an explicitly requested budget below MinMeasure errors (it used to
// be silently clamped to 20 and cached under a key the caller never
// asked for), while the default and scale-fold paths still clamp.
func TestNormalizeRejectsExplicitSubMinimum(t *testing.T) {
	_, err := JobSpec{Workload: "memcached", Config: Base, Seed: 1, Measure: 5}.Normalize()
	if err == nil {
		t.Error("explicit measure=5 normalized, want error")
	}
	if _, _, err := New(Options{Workers: 1}).Submit(JobSpec{Workload: "memcached", Config: Base, Seed: 1, Measure: 5}); err == nil {
		t.Error("explicit measure=5 submitted, want error")
	}
	// MinMeasure itself is accepted.
	n, err := JobSpec{Workload: "memcached", Config: Base, Seed: 1, Measure: MinMeasure}.Normalize()
	if err != nil || n.Measure != MinMeasure {
		t.Errorf("measure=%d: n=%+v err=%v, want accepted verbatim", MinMeasure, n, err)
	}
	// The scale-fold path clamps rather than erroring: an explicit
	// valid budget scaled below the floor lands on the floor.
	n, err = JobSpec{Workload: "memcached", Config: Base, Seed: 1, Measure: 100, Scale: 0.01}.Normalize()
	if err != nil || n.Measure != MinMeasure {
		t.Errorf("measure=100 scale=0.01: n=%+v err=%v, want clamp to %d", n, err, MinMeasure)
	}
	// The workload-default path still clamps tiny scales.
	n, err = JobSpec{Workload: "memcached", Config: Base, Seed: 1, Scale: 0.001}.Normalize()
	if err != nil || n.Measure != MinMeasure {
		t.Errorf("default scale=0.001: n=%+v err=%v, want clamp to %d", n, err, MinMeasure)
	}
}
