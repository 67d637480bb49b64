package runner

import (
	"context"
	"testing"
)

// churnSpec is an exact job on a churn workload with enough requests
// for several library rotations (plugin-server unloads/reloads a
// plugin every 12 requests).
func churnSpec(workload string, seed uint64) JobSpec {
	return JobSpec{Workload: workload, Config: Enhanced, Seed: seed, Warm: 10, Measure: 80}
}

// TestChurnWorkloadsBitIdentical extends the pooled-vs-unpooled A/B to
// the churn workloads: with libraries rotating mid-job (plugin-server)
// and guest code rewriting GOT slots (jit), counters must be
// bit-identical whether a fork starts from the pool's shared Program or
// its CPU compiles its own, recompiling after every rotation either way.
func TestChurnWorkloadsBitIdentical(t *testing.T) {
	ctx := context.Background()
	variants := []struct {
		name string
		opts Options
	}{
		{"compiled-pooled", Options{Workers: 2}},
		{"compiled-unpooled", Options{Workers: 2, DisablePool: true}},
	}
	for _, wl := range []string{"plugin-server", "jit"} {
		spec := churnSpec(wl, 13)
		results := make([]Result, len(variants))
		for i, v := range variants {
			r := New(v.opts)
			res, err := r.Run(ctx, spec)
			if err != nil {
				t.Fatalf("%s %s: %v", wl, v.name, err)
			}
			results[i] = res
			r.Close()
		}
		if results[0].Counters.Instructions == 0 {
			t.Fatalf("%s: empty counters", wl)
		}
		for i := 1; i < len(results); i++ {
			if results[i].Counters != results[0].Counters {
				t.Errorf("%s: %s counters diverge from %s:\n  %+v\n  %+v",
					wl, variants[i].name, variants[0].name, results[i].Counters, results[0].Counters)
			}
		}
	}
}

// TestChurnSampledCICoversExact is the sampled-mode acceptance check on
// a churn workload: the sampled job's per-request estimates must cover
// the exact job's measured cost within their 95% confidence intervals.
// Library rotations land in fast-forwarded stretches as well as
// measured windows, so this fails if skipped churn (GOT stores, demand
// maps) leaves the ABTB or paging state diverged from the exact path.
func TestChurnSampledCICoversExact(t *testing.T) {
	for _, wl := range []string{"plugin-server", "jit"} {
		requireSampledCoversExact(t, JobSpec{Workload: wl, Config: Enhanced, Seed: 7, Warm: 10, Measure: 160}, 4, 0)
	}
}

// TestChurnFlushesAboveBaseline checks that library churn is what
// flushes the ABTB.  Exact Enhanced jobs (seed 3, 30 warmup and 160
// measured requests) of both churn workloads must flush more often per
// 1k retired instructions than memcached, whose library set is stable:
// plugin-server's rotations and jit's GOT rewrites are the flush
// source.  Both must still redirect more than half of their trampoline
// calls, because the table refills between flush storms.
func TestChurnFlushesAboveBaseline(t *testing.T) {
	r := New(Options{Workers: 2})
	defer r.Close()
	rates := func(workload string) (flushesPer1k, hitRate float64) {
		res, err := r.Run(context.Background(), JobSpec{Workload: workload, Config: Enhanced, Seed: 3, Warm: 30, Measure: 160})
		if err != nil {
			t.Fatalf("%s: %v", workload, err)
		}
		c := res.Counters
		if c.TrampCalls == 0 || c.Instructions == 0 {
			t.Fatalf("%s: empty counters", workload)
		}
		flushesPer1k = 1000 * float64(c.ABTBFlushes) / float64(c.Instructions)
		hitRate = float64(c.TrampSkips) / float64(c.TrampCalls)
		t.Logf("%s: %.4f ABTB flushes per 1k instructions, hit rate %.4f", workload, flushesPer1k, hitRate)
		return flushesPer1k, hitRate
	}
	baseline, _ := rates("memcached")
	for _, wl := range []string{"plugin-server", "jit"} {
		flushes, hit := rates(wl)
		if flushes <= baseline {
			t.Errorf("%s: %.4f flushes per 1k instructions, not above the no-churn baseline %.4f", wl, flushes, baseline)
		}
		if hit <= 0.5 {
			t.Errorf("%s: ABTB hit rate %.4f collapsed to 0.5 or below", wl, hit)
		}
	}
}
