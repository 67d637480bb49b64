package runner

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// sampledSpec is a cheap sampled job: enough measured requests that a
// 4-way split leaves a real excerpt per window.
func sampledSpec(seed uint64) JobSpec {
	return JobSpec{
		Workload: "memcached", Config: Base, Seed: seed,
		Warm: 5, Measure: 160, SampleWindows: 4,
	}
}

func sampledJSON(t *testing.T, s *SampledResult) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSampledRunDeterministic pins the sampled path's reproducibility:
// the same spec yields byte-identical estimates (and excerpt counters)
// across independent runner instances, and the estimate block carries
// every advertised metric.
func TestSampledRunDeterministic(t *testing.T) {
	ctx := context.Background()
	var got []string
	for i := 0; i < 2; i++ {
		r := New(Options{Workers: 2})
		res, err := r.Run(ctx, sampledSpec(11))
		if err != nil {
			t.Fatal(err)
		}
		if res.Sampled == nil {
			t.Fatal("sampled job has no Sampled block")
		}
		if res.Timeline != nil {
			t.Error("sampled job produced a timeline")
		}
		if res.Counters.Instructions == 0 {
			t.Error("excerpt counters are empty")
		}
		for _, name := range sampledMetricNames {
			m, ok := res.Sampled.Metrics[name]
			if !ok {
				t.Fatalf("metric %s missing", name)
			}
			if m.CI95 < 0 {
				t.Errorf("metric %s: negative half-width %v", name, m.CI95)
			}
		}
		got = append(got, sampledJSON(t, res.Sampled))
		r.Close()
	}
	if got[0] != got[1] {
		t.Errorf("sampled estimates diverge across runners:\n  a %s\n  b %s", got[0], got[1])
	}
}

// TestSampledStoreRestore checks the persistence contract: the
// estimate record written beside the result is served byte-identically
// by the next process generation through Runner.Sampled, for a job
// whose in-memory Result was never populated in this process.
func TestSampledStoreRestore(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	spec := sampledSpec(5)

	st1 := openStore(t, dir)
	r1 := New(Options{Workers: 2, Store: st1})
	res, err := r1.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	want := sampledJSON(t, res.Sampled)
	r1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	r2 := New(Options{Workers: 2, Store: st2})
	defer r2.Close()
	j, reused, err := r2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reused {
		t.Fatal("warm-start Submit reused=false")
	}
	got, ok := r2.Sampled(j.ID)
	if !ok {
		t.Fatal("restored job has no sampled record")
	}
	if sampledJSON(t, got) != want {
		t.Errorf("restored estimates differ:\n  want %s\n  got  %s", want, sampledJSON(t, got))
	}
}

// TestSampledTornRecord is the crash test: tearing the segment tail
// (where the sampled record sits, written after its result) costs
// exactly the estimates — the result stays servable and the partial
// record never surfaces.
func TestSampledTornRecord(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	spec := sampledSpec(9)

	st1 := openStore(t, dir)
	r1 := New(Options{Workers: 2, Store: st1})
	res, err := r1.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	r1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files in %s (err %v)", dir, err)
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	if st2.Stats().TornRecovered == 0 {
		t.Fatal("reopen recovered no torn record; test cut nothing")
	}
	r2 := New(Options{Workers: 2, Store: st2})
	defer r2.Close()
	j, reused, err := r2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reused {
		t.Fatal("result record should have survived the torn sampled tail")
	}
	got, ok := j.Result()
	if !ok {
		t.Fatal("restored job has no result")
	}
	if got.ID != res.ID || got.Counters != res.Counters {
		t.Errorf("restored result differs: %+v vs %+v", got.Counters, res.Counters)
	}
	if _, ok := r2.Sampled(j.ID); ok {
		t.Error("torn sampled record surfaced as estimates")
	}
}

// TestCompiledExactBitIdentical pins compiled-trace sharing at the job
// level: an exact job's counters are bit-identical whether the pool
// installs the Program cached next to the master image or the CPU
// compiles its own at its first Run.
func TestCompiledExactBitIdentical(t *testing.T) {
	ctx := context.Background()
	spec := fastSpec(21)
	variants := []struct {
		name string
		opts Options
	}{
		{"compiled-pooled", Options{Workers: 2}},
		{"compiled-unpooled", Options{Workers: 2, DisablePool: true}},
	}
	results := make([]Result, len(variants))
	for i, v := range variants {
		r := New(v.opts)
		res, err := r.Run(ctx, spec)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		results[i] = res
		r.Close()
	}
	for i := 1; i < len(results); i++ {
		if results[i].Counters != results[0].Counters {
			t.Errorf("%s counters diverge from %s:\n  %+v\n  %+v",
				variants[i].name, variants[0].name, results[i].Counters, results[0].Counters)
		}
		if results[i].PKI != results[0].PKI {
			t.Errorf("%s PKI diverges from %s", variants[i].name, variants[0].name)
		}
	}
}

// TestBatchSampledAggregate checks the sweep roll-up: a sampled sweep
// propagates sample_windows into every expanded spec and its
// aggregates carry the pooled per-request mean with a combined 95%
// half-width.
func TestBatchSampledAggregate(t *testing.T) {
	r := New(Options{Workers: 4})
	defer r.Close()
	b, _, err := r.SubmitBatch(SweepSpec{
		Workload: "memcached",
		Configs:  []ConfigKind{Base, Enhanced},
		Seeds:    []uint64{1, 2},
		Warm:     5, Measure: 160,
		SampleWindows: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range b.Specs {
		if s.SampleWindows != 4 {
			t.Fatalf("expanded spec lost sample_windows: %+v", s)
		}
	}
	if err := b.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := b.Status()
	if len(st.Aggregate) != 2 {
		t.Fatalf("got %d aggregates, want 2", len(st.Aggregate))
	}
	for _, a := range st.Aggregate {
		if a.SampledJobs != 2 {
			t.Errorf("config %s: sampled_jobs = %d, want 2", a.Config, a.SampledJobs)
		}
		if a.SampledUS <= 0 || a.SampledUSCI < 0 {
			t.Errorf("config %s: sampled_us = %v ± %v, want positive mean", a.Config, a.SampledUS, a.SampledUSCI)
		}
	}
	if len(st.Timelines) != 0 {
		t.Errorf("sampled sweep produced %d merged timelines, want 0", len(st.Timelines))
	}
}
