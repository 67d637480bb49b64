package main

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/runner"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// at returns the instant ms milliseconds after a fixed origin.
func at(ms int) time.Time {
	return time.Unix(1_700_000_000, 0).Add(time.Duration(ms) * time.Millisecond)
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	p := &span{name: "wait", start: at(0), end: at(100)}
	p.add("a", at(10), at(40))
	p.add("b", at(30), at(60))  // overlaps a: [10,60] counts once
	p.add("c", at(90), at(120)) // reaches past the parent: only [90,100] counts
	p.add("d", at(200), at(210))
	p.add("e", at(45), at(50)) // inside a∪b
	if got, want := selfTime(p), 40*time.Millisecond; got != want {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
	if got := selfTime(&span{start: at(0), end: at(7)}); got != 7*time.Millisecond {
		t.Errorf("selfTime of a leaf = %v, want its duration", got)
	}
}

func TestUnattributed(t *testing.T) {
	// A cold op: submit, then a wait holding the daemon's job span and
	// the final read.  The gap between the job's end and the read is
	// poll quantisation; the op's own tail is client overhead.
	op := &span{name: "op", start: at(0), end: at(100)}
	op.add("submit", at(0), at(10))
	wait := op.add("wait", at(10), at(98))
	job := wait.add("job", at(8), at(92)) // starts inside the submit
	job.add("queued", at(8), at(9))
	att := job.add("attempt", at(9), at(90))
	att.add("generate", at(9), at(20))
	att.add("link", at(20), at(30)).attrs = map[string]string{"pool_hit": "false"}
	att.add("measure", at(30), at(89))
	wait.add("read", at(94), at(97))
	// Layer self times: submit 10, job 84-82=2, queued 1, attempt 81-80=1,
	// generate 11, link 10, measure 59, read 3: 97 in all.
	if got, want := unattributed(op), 3*time.Millisecond; got != want {
		t.Errorf("unattributed = %v, want %v", got, want)
	}
	if got := layerOf(att.kids[1]); got != "linker" {
		t.Errorf("a pool-miss link is layer %q, want linker", got)
	}
}

// rounds collects the job specs of the first n rounds of every workload
// that runs jobs.
func rounds(seed uint64, n int) map[string][]runner.JobSpec {
	out := map[string][]runner.JobSpec{"hot-reads": hotFill(seed, hotFillSize)}
	for r := 0; r < n; r++ {
		out["cold-exact"] = append(out["cold-exact"], coldExactRound(seed, r)...)
		out["cold-small"] = append(out["cold-small"], coldSmallRound(seed, r)...)
		for _, sw := range sampledBatchRound(seed, r) {
			specs, err := sw.Expand()
			if err != nil {
				panic(err)
			}
			out["sampled-batch"] = append(out["sampled-batch"], specs...)
		}
	}
	return out
}

func TestJobListsArePureAndDisjoint(t *testing.T) {
	a, b := rounds(1, 30), rounds(1, 30)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the job lists are not a pure function of the seed")
	}
	if reflect.DeepEqual(a["cold-exact"], rounds(2, 30)["cold-exact"]) {
		t.Fatal("seeds 1 and 2 give the same cold-exact list")
	}
	owner := make(map[string]string)
	for wl, specs := range a {
		for _, s := range specs {
			if s.Seed == goldenSeed {
				t.Errorf("%s uses the golden seed: %+v", wl, s)
			}
			if !runs(s.Workload, s.Config) {
				t.Errorf("%s sends a job the service fails by design: %+v", wl, s)
			}
			key, err := s.Key()
			if err != nil {
				t.Fatalf("%s: %v", wl, err)
			}
			if prev, dup := owner[key]; dup {
				t.Errorf("key %s appears in %s and %s", key, prev, wl)
			}
			owner[key] = wl
		}
	}
	for _, g := range goldenSpecsForTest(t) {
		key, _ := g.Key()
		if wl, dup := owner[key]; dup {
			t.Errorf("%s sends golden job %s", wl, key)
		}
	}
}

func goldenSpecsForTest(t *testing.T) []runner.JobSpec {
	rows, err := loadGolden("..")
	if err != nil {
		t.Fatal(err)
	}
	var out []runner.JobSpec
	for _, r := range rows {
		out = append(out, goldenSpec(r))
	}
	return out
}

func TestHotOpsArePureAndMixed(t *testing.T) {
	count := make(map[string]int)
	for i := 0; i < 20000; i++ {
		o := hotOpAt(3, i, hotFillSize)
		if o != hotOpAt(3, i, hotFillSize) {
			t.Fatalf("op %d is not a pure function of the seed", i)
		}
		if o.idx < 0 || o.idx >= hotFillSize {
			t.Fatalf("op %d reads fill job %d of %d", i, o.idx, hotFillSize)
		}
		count[o.kind]++
	}
	for kind, want := range map[string]float64{"submit": 0.3, "read": 0.5, "timeline": 0.2} {
		if got := float64(count[kind]) / 20000; got < want-0.02 || got > want+0.02 {
			t.Errorf("%s share %.3f, want %.2f", kind, got, want)
		}
	}
}

// asResult is the wire view of a golden row's counters.
func asResult(g goldenRow) *resultView {
	c := g.Counters
	return &resultView{Instructions: c.Instructions, Cycles: c.Cycles, TrampInstrs: c.TrampInstrs,
		TrampCalls: c.TrampCalls, TrampSkips: c.TrampSkips, Resolutions: c.Resolutions}
}

func TestCheckersRejectMutatedGoldenRows(t *testing.T) {
	rows, err := loadGolden("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("golden file has %d rows, want 12", len(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		base, enh := rows[i], rows[i+1]
		if err := checkGolden(base, asResult(base)); err != nil {
			t.Errorf("unmutated row fails: %v", err)
		}
		if err := checkPair(asResult(base), asResult(enh)); err != nil {
			t.Errorf("golden %s pair fails the invariant: %v", base.Workload, err)
		}

		r := asResult(enh)
		r.Cycles++
		if checkGolden(enh, r) == nil {
			t.Errorf("%s/%s: golden check accepts one extra cycle", enh.Workload, enh.Config)
		}
		for name, mutate := range map[string]func(b, e *resultView){
			"skip":      func(b, e *resultView) { e.TrampSkips++ },
			"call":      func(b, e *resultView) { e.TrampCalls++ },
			"base skip": func(b, e *resultView) { b.TrampSkips = 1 },
			"instr":     func(b, e *resultView) { b.Instructions-- },
		} {
			b, e := asResult(base), asResult(enh)
			mutate(b, e)
			if checkPair(b, e) == nil {
				t.Errorf("%s: pair check accepts a mutated %s", base.Workload, name)
			}
		}
	}
}

func TestWithoutHitIgnoresOnlyCacheHit(t *testing.T) {
	miss := []byte(`{"id": "x", "result": {"wall_ms": 1.5, "cache_hit": false, "cycles": 10}}`)
	hit := []byte(`{"id": "x", "result": {"wall_ms": 1.5, "cache_hit": true, "cycles": 10}}`)
	other := []byte(`{"id": "x", "result": {"wall_ms": 1.5, "cache_hit": true, "cycles": 11}}`)
	if !bytes.Equal(withoutHit(hit), withoutHit(miss)) {
		t.Error("answers differing only in cache_hit compare unequal")
	}
	if bytes.Equal(withoutHit(other), withoutHit(miss)) {
		t.Error("answers differing in cycles compare equal")
	}
}

func TestCrossCheckFindsAChangedCounter(t *testing.T) {
	res := func(instr uint64) opOut {
		return opOut{jobs: []jobOut{{"k", &resultView{Instructions: instr, Cycles: 9}}}}
	}
	pu := &phaseOut{outs: map[int]opOut{0: res(5), 1: res(6), 2: res(7)}}
	pt := &phaseOut{outs: map[int]opOut{0: res(5), 1: res(8)}}
	compared, bad := crossCheck(pu, pt)
	if compared != 2 || len(bad) != 1 {
		t.Errorf("crossCheck compared %d jobs and found %d differences, want 2 and 1: %v", compared, len(bad), bad)
	}
}
