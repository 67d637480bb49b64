package runner

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"repro/internal/timeline"
)

// tlSpec is a cheap job with a fine sampling grid so even short runs
// produce a multi-point series.
func tlSpec(seed uint64) JobSpec {
	s := fastSpec(seed)
	s.TimelineInterval = timeline.MinInterval
	return s
}

// mustJSON marshals a series for byte-level comparison.
func mustJSON(t *testing.T, s *timeline.Series) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestTimelineDeterministic is the series analogue of the golden
// counter test: the same spec yields a byte-identical timeline on
// every run, in-process and across runner instances.
func TestTimelineDeterministic(t *testing.T) {
	ctx := context.Background()
	var got []string
	for i := 0; i < 2; i++ {
		r := New(Options{Workers: 2})
		res, err := r.Run(ctx, tlSpec(11))
		if err != nil {
			t.Fatal(err)
		}
		if res.Timeline() == nil {
			t.Fatal("result has no timeline")
		}
		if len(res.Timeline().Points) < 2 {
			t.Fatalf("series has %d points, want >= 2 (premise: spec spans multiple intervals)",
				len(res.Timeline().Points))
		}
		got = append(got, mustJSON(t, res.Timeline()))
		r.Close()
	}
	if got[0] != got[1] {
		t.Errorf("timelines diverge across runner instances:\n  a %s\n  b %s", got[0], got[1])
	}

	// And through the same pool: a cache hit returns the identical
	// series object, a distinct-seed job a distinct one.
	r := New(Options{Workers: 4})
	defer r.Close()
	a, err := r.Run(ctx, tlSpec(11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(ctx, tlSpec(11))
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, a.Timeline()) != got[0] || mustJSON(t, b.Timeline()) != got[0] {
		t.Error("pooled runs diverge from fresh-runner series")
	}
	if tl, ok := r.Timeline(a.ID); !ok || mustJSON(t, tl) != got[0] {
		t.Errorf("Timeline(%s) ok=%v, want the job's own series", a.ID, ok)
	}
}

// TestTimelineOff checks the off switch end to end: no series on the
// result, Timeline() answers false, and the job key (hence ID) differs
// from the default-sampled variant while default sampling leaves the
// key identical to a spec that never mentions timelines.
func TestTimelineOff(t *testing.T) {
	ctx := context.Background()
	r := New(Options{Workers: 2})
	defer r.Close()

	off := fastSpec(3)
	off.TimelineOff = true
	res, err := r.Run(ctx, off)
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeline() != nil {
		t.Error("TimelineOff job still produced a series")
	}
	if _, ok := r.Timeline(res.ID); ok {
		t.Error("Timeline() answered true for a timeline-off job")
	}

	// Key discipline: defaults are silent (old IDs stay valid),
	// non-defaults are spelled out.
	key := func(s JobSpec) string {
		t.Helper()
		k, err := s.Key()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	deflt := fastSpec(3)
	deflt.TimelineInterval = timeline.DefaultInterval
	if key(deflt) != key(fastSpec(3)) {
		t.Errorf("explicit default interval changed key:\n  %s\n  %s", key(deflt), key(fastSpec(3)))
	}
	if key(off) == key(fastSpec(3)) {
		t.Error("timeline-off spec has the same key as the default spec")
	}
	if key(tlSpec(3)) == key(fastSpec(3)) || key(tlSpec(3)) == key(off) {
		t.Error("non-default interval spec key collides")
	}
}

// TestTimelineStoreRestore checks the persistence contract: a series
// written beside the result is served byte-identically by the next
// process generation, for a job restored from disk, both in the
// restored Result and through Runner.Timeline.
func TestTimelineStoreRestore(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	spec := tlSpec(5)

	st1 := openStore(t, dir)
	r1 := New(Options{Workers: 2, Store: st1})
	res, err := r1.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, res.Timeline())
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
	// Restoring reads the result alone; the series record is read on
	// first use, once, however many readers race for it.
	if hits := st2.Stats().Hits; hits != 1 {
		t.Errorf("restore made %d store reads, want 1 (the result)", hits)
	}
	restored, ok := j.Result()
	if !ok {
		t.Fatal("restored job has no result")
	}
	seen := make([]*timeline.Series, 4)
	var wg sync.WaitGroup
	for i := range seen {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen[i] = restored.Timeline()
		}()
	}
	wg.Wait()
	for _, s := range seen {
		if s != seen[0] {
			t.Fatal("concurrent readers of a restored series got different copies")
		}
	}
	// The restored result answers the series itself, like the live one.
	if seen[0] == nil {
		t.Error("restored Result has no Timeline")
	} else if mustJSON(t, seen[0]) != want {
		t.Errorf("restored Result's series differs:\n  want %s\n  got  %s", want, mustJSON(t, seen[0]))
	}
	if hits := st2.Stats().Hits; hits != 2 {
		t.Errorf("after %d reads of the series: %d store reads, want 2", len(seen), hits)
	}
	got, ok := r2.Timeline(j.ID)
	if !ok {
		t.Fatal("restored job has no timeline")
	}
	if mustJSON(t, got) != want {
		t.Errorf("restored series differs:\n  want %s\n  got  %s", want, mustJSON(t, got))
	}
}

// TestTimelineTornRecord is the crash test: tearing the tail of the
// segment (where the timeline record sits, written after its result)
// must cost exactly the timeline — the result itself stays servable
// and the partial series never surfaces.
func TestTimelineTornRecord(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	spec := tlSpec(9)

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
	// Chop into the final record's payload: a torn CRC the store's
	// recovery discards on open.
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
		t.Fatal("result record should have survived the torn timeline")
	}
	got, ok := j.Result()
	if !ok {
		t.Fatal("restored job has no result")
	}
	if got.ID != res.ID || got.Counters != res.Counters {
		t.Errorf("restored result differs: %+v vs %+v", got.Counters, res.Counters)
	}
	if _, ok := r2.Timeline(j.ID); ok {
		t.Error("torn timeline record surfaced as a series")
	}
}

// TestBatchTimelines checks per-config aggregation: a sweep's status
// carries one merged series per config covering every completed job.
func TestBatchTimelines(t *testing.T) {
	r := New(Options{Workers: 4})
	defer r.Close()
	b, _, err := r.SubmitBatch(SweepSpec{
		Workload: "memcached",
		Configs:  []ConfigKind{Base, Enhanced},
		Seeds:    []uint64{1, 2},
		Warm:     5, Measure: 25,
		TimelineInterval: timeline.MinInterval,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := b.Status()
	if len(st.Timelines) != 2 {
		t.Fatalf("got %d batch timelines, want one per config (2): %+v", len(st.Timelines), st.Timelines)
	}
	for _, bt := range st.Timelines {
		if bt.Jobs != 2 {
			t.Errorf("config %s merged %d jobs, want 2", bt.Config, bt.Jobs)
		}
		if bt.Series == nil || len(bt.Series.Points) == 0 {
			t.Errorf("config %s has an empty merged series", bt.Config)
		}
	}
}
