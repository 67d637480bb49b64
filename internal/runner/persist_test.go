package runner

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/stats"
	"repro/internal/timeline"
	"repro/internal/trace"
)

// Side records as the store held them before timelines and sampled
// estimates shared one encoder (each had its own envelope type).  The
// shared encoder must write these bytes exactly and read them back, so
// stores written by older builds stay readable and new records stay
// readable by them.
const (
	legacyTimelineRecord = `{"v":1,"kind":"timeline","id":"0123456789abcdef","series":{"interval":4096,"base_interval":1024,"points":[{"instructions":4096,"cycles":9001,"tramp_calls":12,"tramp_skips":7,"tramp_instrs":0,"resolutions":1,"got_stores":1,"page_faults":0,"stores":33,"abtb_hits":0,"abtb_inserts":0,"abtb_flushes":0,"bloom_lookups":0,"bloom_flush_hits":0,"mispredicts":0,"l1i_misses":0,"l1d_misses":0,"l2_misses":0,"itlb_misses":0,"dtlb_misses":0},{"instructions":8192,"cycles":18400,"tramp_calls":25,"tramp_skips":0,"tramp_instrs":0,"resolutions":0,"got_stores":0,"page_faults":0,"stores":0,"abtb_hits":20,"abtb_inserts":3,"abtb_flushes":0,"bloom_lookups":0,"bloom_flush_hits":0,"mispredicts":0,"l1i_misses":0,"l1d_misses":0,"l2_misses":0,"itlb_misses":0,"dtlb_misses":0}]}}`
	legacySampledRecord  = `{"v":1,"kind":"sampled","id":"fedcba9876543210","sampled":{"windows":4,"fast_forwarded_per_window":36,"warmup_per_window":10,"measured_per_window":4,"metrics":{"cpi":{"mean":1.0625,"ci95":0.03125},"cycles":{"mean":123456.25,"ci95":789.5},"us_per_req":{"mean":41.15208333333334,"ci95":0.26316666666666666}}}}`
)

// A job result as the store has always held it (the record of
// stableResult below).
const legacyResultRecord = `{"v":1,"kind":"job","spec":{"workload":"memcached","config":"enhanced","seed":3,"warm":5,"measure":25,"timeline_interval":65536},"key":"memcached|enhanced|seed=3|warm=5|measure=25","id":"bbbe8147dbb50960","counters":{"Instructions":81234,"Cycles":190001,"TrampInstrs":640,"TrampCalls":160,"TrampSkips":120,"Loads":0,"Stores":0,"Branches":0,"Mispredicts":42,"MispredCond":0,"MispredRet":0,"MispredIndirect":0,"MispredCall":0,"FetchBubbles":0,"Resolutions":9,"L1IAccesses":0,"L1IMisses":311,"L1DAccesses":0,"L1DMisses":0,"L2Accesses":0,"L2Misses":0,"ITLBAccesses":0,"ITLBMisses":0,"DTLBAccesses":0,"DTLBMisses":0,"BTBEvictions":0,"ABTBRedirects":0,"ABTBFlushes":0},"pki":{"TrampInstrs":7.878474530369058,"L1IMisses":3.828446217101214,"ITLBMisses":0,"L1DMisses":0,"DTLBMisses":0,"Mispredicts":0.5170248910554693},"classes":{"GET":[11.25,12.5,13],"SET":[20.125]},"distinct_trampolines":7,"lib_calls":40,"setup_wall_ns":1500000,"measure_wall_ns":2000000}`

// stableResult is a live result whose store record is
// legacyResultRecord.
func stableResult() *Result {
	c := cpu.Counters{Instructions: 81234, Cycles: 190001, TrampInstrs: 640, TrampCalls: 160, TrampSkips: 120,
		Resolutions: 9, L1IMisses: 311, Mispredicts: 42}
	get, set := &stats.Sample{}, &stats.Sample{}
	get.AddAll([]float64{12.5, 11.25, 13})
	set.AddAll([]float64{20.125})
	res := &Result{
		Spec:     JobSpec{Workload: "memcached", Config: Enhanced, Seed: 3, Warm: 5, Measure: 25, TimelineInterval: 65536},
		Key:      "memcached|enhanced|seed=3|warm=5|measure=25",
		ID:       "bbbe8147dbb50960",
		Counters: c,
		PKI:      core.PKIOf(c),
		Samples:  map[string]*stats.Sample{"GET": get, "SET": set},
		Trampolines: trace.Summary{Distinct: 7, Calls: 40,
			Counts: []uint64{6, 6, 6, 6, 6, 5, 5}, Dist: []uint64{0, 0, 0, 0, 0, 0, 0, 33}},
		SetupWall:   1500 * time.Microsecond,
		MeasureWall: 2 * time.Millisecond,
	}
	res.freeze()
	return res
}

// TestResultBytesStable pins the job result's disk format: encoding a
// live result reproduces the bytes older builds wrote, which persist
// only the trampoline summary's two numbers, and those bytes decode to
// a restored result carrying the same values.
func TestResultBytesStable(t *testing.T) {
	live := stableResult()
	b, err := encodeResult(live)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != legacyResultRecord {
		t.Errorf("encoding changed:\ngot  %s\nwant %s", b, legacyResultRecord)
	}
	got, err := decodeResult([]byte(legacyResultRecord))
	if err != nil {
		t.Fatal(err)
	}
	want := *live
	want.Trampolines = trace.Summary{Distinct: 7, Calls: 40}
	want.Wall = live.SetupWall + live.MeasureWall
	want.Restored = true
	if !reflect.DeepEqual(got, &want) {
		t.Errorf("decoded %+v\nwant    %+v", got, &want)
	}
}

// TestSideRecordBytesStable pins the side records' disk format: store
// IDs keep their "t" and "s" prefixes, encoding reproduces the older
// builds' bytes, those bytes decode to the same value, and a record of
// one kind never decodes as the other.
func TestSideRecordBytesStable(t *testing.T) {
	series := &timeline.Series{Interval: 4096, BaseInterval: 1024, Points: []timeline.Point{
		{Instructions: 4096, Cycles: 9001, TrampCalls: 12, TrampSkips: 7, Resolutions: 1, GOTStores: 1, Stores: 33},
		{Instructions: 8192, Cycles: 18400, TrampCalls: 25, ABTBHits: 20, ABTBInserts: 3},
	}}
	sampled := &SampledResult{Windows: 4, FastForwarded: 36, Warmed: 10, Measured: 4, Metrics: map[string]SampledCounter{
		"cycles":     {Mean: 123456.25, CI95: 789.5},
		"cpi":        {Mean: 1.0625, CI95: 0.03125},
		"us_per_req": {Mean: 41.152083333333336, CI95: 0.26316666666666666},
	}}
	checkSideRecord(t, &persistedSide{Kind: kindTimeline, ID: "0123456789abcdef", Series: series},
		"t0123456789abcdef", legacyTimelineRecord)
	checkSideRecord(t, &persistedSide{Kind: kindSampled, ID: "fedcba9876543210", Sampled: sampled},
		"sfedcba9876543210", legacySampledRecord)

	if _, err := decodeSide([]byte(legacySampledRecord), kindTimeline); err == nil {
		t.Error("a sampled record decoded as a timeline")
	}
	if _, err := decodeSide([]byte(legacyTimelineRecord), kindSampled); err == nil {
		t.Error("a timeline record decoded as sampled estimates")
	}
}

// sideResult is a result carrying side record p's body under a spec
// of p's kind.
func sideResult(p *persistedSide) *Result {
	res := &Result{ID: p.ID, Sampled: p.Sampled}
	if p.Series != nil {
		res.series = func() *timeline.Series { return p.Series }
	}
	if p.Kind == kindSampled {
		res.Spec = JobSpec{SampleWindows: p.Sampled.Windows, TimelineOff: true}
	}
	return res
}

// checkSideRecord checks that the result carrying want's body stores
// it under wantStoreID as the legacy bytes, which decode back to want.
func checkSideRecord(t *testing.T, want *persistedSide, wantStoreID, legacy string) {
	t.Helper()
	id, b, err := encodeSide(sideResult(want))
	if err != nil {
		t.Fatal(err)
	}
	if id != wantStoreID {
		t.Errorf("%s: store ID %q, want %q", want.Kind, id, wantStoreID)
	}
	if string(b) != legacy {
		t.Errorf("%s: encoding changed:\ngot  %s\nwant %s", want.Kind, b, legacy)
	}
	got, err := decodeSide([]byte(legacy), want.Kind)
	if err != nil {
		t.Fatalf("%s: decoding the older build's record: %v", want.Kind, err)
	}
	want.V = persistVersion
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: decoded %+v, want %+v", want.Kind, got, want)
	}
}
