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
	ctx := context.Background()
	for _, wl := range []string{"plugin-server", "jit"} {
		const measure = 160
		exactSpec := JobSpec{Workload: wl, Config: Enhanced, Seed: 7, Warm: 10, Measure: measure}
		sampled := exactSpec
		sampled.SampleWindows = 4

		r := New(Options{Workers: 2})
		exact, err := r.Run(ctx, exactSpec)
		if err != nil {
			t.Fatalf("%s exact: %v", wl, err)
		}
		est, err := r.Run(ctx, sampled)
		if err != nil {
			t.Fatalf("%s sampled: %v", wl, err)
		}
		r.Close()
		if est.Sampled == nil {
			t.Fatalf("%s: sampled job has no estimate block", wl)
		}
		for name, want := range map[string]float64{
			"instructions": float64(exact.Counters.Instructions) / measure,
			"cycles":       float64(exact.Counters.Cycles) / measure,
		} {
			m, ok := est.Sampled.Metrics[name]
			if !ok {
				t.Fatalf("%s: metric %s missing", wl, name)
			}
			if m.CI95 < 0 {
				t.Fatalf("%s: metric %s has negative half-width", wl, name)
			}
			if want < m.Mean-m.CI95 || want > m.Mean+m.CI95 {
				t.Errorf("%s: exact %s %.1f/req outside sampled 95%% CI %.1f ± %.1f",
					wl, name, want, m.Mean, m.CI95)
			}
		}
	}
}
