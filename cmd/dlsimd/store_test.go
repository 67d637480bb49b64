package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/store"
)

// pollJobDone polls GET /v1/jobs/{id} until the job is done.
func pollJobDone(t *testing.T, ts *httptest.Server, id string) jobResponse {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		job, code := getJob(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("poll %s: status %d", id, code)
		}
		if job.State == runner.StateDone {
			return job
		}
		if job.State == runner.StateFailed {
			t.Fatalf("job %s failed: %s", id, job.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not done in time (state %s)", id, job.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// aggregatesEqual compares per-config aggregates bit-for-bit on every
// deterministic field.  SetupMS/MeasMS are wall-clock and excluded —
// they measure this machine, not the simulated one.
func aggregatesEqual(t *testing.T, want, got []runner.BatchAggregate) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("aggregate count %d != want %d\n  want %+v\n  got  %+v", len(got), len(want), want, got)
	}
	index := make(map[runner.ConfigKind]runner.BatchAggregate, len(want))
	for _, a := range want {
		index[a.Config] = a
	}
	for _, g := range got {
		w, ok := index[g.Config]
		if !ok {
			t.Fatalf("config %q in got aggregates but not want", g.Config)
		}
		if g.Jobs != w.Jobs ||
			math.Float64bits(g.MeanCPI) != math.Float64bits(w.MeanCPI) ||
			math.Float64bits(g.MeanUS) != math.Float64bits(w.MeanUS) ||
			math.Float64bits(g.P99US) != math.Float64bits(w.P99US) ||
			math.Float64bits(g.TrampPKI) != math.Float64bits(w.TrampPKI) {
			t.Fatalf("config %q aggregates diverge:\n  want %+v\n  got  %+v", g.Config, w, g)
		}
	}
}

// startGeneration opens the store in dir and serves a runner over it,
// as one dlsimd process would.
func startGeneration(t *testing.T, dir string, workers int) (*server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	api := newServer(runner.New(runner.Options{Workers: workers, Store: st}), serverConfig{})
	return api, httptest.NewServer(api)
}

// stopGeneration shuts a generation down in main's order: drain and
// flush the store until deadline, stop serving HTTP, then close the
// pool.  It returns drain's abandoned count.
func stopGeneration(deadline context.Context, api *server, ts *httptest.Server) int {
	abandoned := api.drain(deadline)
	ts.Close()
	api.pool.Close()
	return abandoned
}

// TestHTTPRestartWarmStart is the end-to-end restart story: run a job
// in one server generation, shut it down through main's drain
// sequence, start a second generation over the same store directory,
// and read the identical result back without resubmitting.
func TestHTTPRestartWarmStart(t *testing.T) {
	dir := t.TempDir()
	const spec = `{"workload":"memcached","config":"enhanced","seed":41,"warm":5,"measure":25}`

	// Generation 1: compute the job, then shut down cleanly.
	api1, ts1 := startGeneration(t, dir, 2)
	sub, code := postJob(t, ts1, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	gen1 := pollJobDone(t, ts1, sub.ID)
	deadline, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if abandoned := stopGeneration(deadline, api1, ts1); abandoned != 0 {
		t.Fatalf("drain abandoned %d job(s), want 0", abandoned)
	}

	// Generation 2: same directory, fresh process state.  The job ID
	// from generation 1 must answer 200 with the identical result —
	// no resubmission, no recomputation.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts2, pool2 := newTestServerOpts(t, runner.Options{Workers: 2, Store: st2}, serverConfig{})
	t.Cleanup(func() { st2.Close() })
	gen2, code := getJob(t, ts2, sub.ID)
	if code != http.StatusOK {
		t.Fatalf("warm-start GET = %d, want 200", code)
	}
	if gen2.State != runner.StateDone || gen2.Result == nil {
		t.Fatalf("warm-start job = %+v, want done with result", gen2)
	}
	r1, r2 := gen1.Result, gen2.Result
	if r1.Instructions != r2.Instructions || r1.Cycles != r2.Cycles ||
		r1.TrampInstrs != r2.TrampInstrs || r1.TrampCalls != r2.TrampCalls ||
		r1.TrampSkips != r2.TrampSkips || r1.Resolutions != r2.Resolutions {
		t.Errorf("counters drifted across restart:\ngen1: %+v\ngen2: %+v", r1, r2)
	}
	if r1.PKI != r2.PKI {
		t.Errorf("PKI drifted across restart:\ngen1: %+v\ngen2: %+v", r1.PKI, r2.PKI)
	}
	if r1.DistinctTrampolines != r2.DistinctTrampolines || r1.LibCalls != r2.LibCalls {
		t.Errorf("trampoline summary drifted: gen1 %d/%d, gen2 %d/%d",
			r1.DistinctTrampolines, r1.LibCalls, r2.DistinctTrampolines, r2.LibCalls)
	}

	// Resubmitting the identical spec is a cache hit, not new work.
	resub, code := postJob(t, ts2, spec)
	if code != http.StatusOK || !resub.Cached {
		t.Fatalf("resubmit = %+v (%d), want cached 200", resub, code)
	}
	if runnerStats := pool2.Stats(); runnerStats.Completed != 0 {
		t.Errorf("generation 2 computed %d jobs; warm start should compute none", runnerStats.Completed)
	}

	// /v1/stats exposes the disk tier.
	resp, err := http.Get(ts2.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Store *storeStatsJSON `json:"store"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Store == nil {
		t.Fatal("/v1/stats omits the store tier while a store is attached")
	}
	if stats.Store.Entries == 0 || stats.Store.Hits == 0 {
		t.Errorf("store stats = %+v, want entries and hits after a warm start", stats.Store)
	}
}

// TestInterruptedSweepResumesAfterRestart is single-node recovery: a
// sweep cut short by main's drain sequence, with a deadline that has
// already passed, leaves its finished jobs in the store and no batch
// snapshot.  Resubmitted after a restart, the sweep restores those
// jobs, computes only the rest, and aggregates exactly as an
// uninterrupted run does.
func TestInterruptedSweepResumesAfterRestart(t *testing.T) {
	dir := t.TempDir()
	const sweep = `{"workload":"memcached","configs":["base","enhanced"],"seeds":[81,82,83],"warm":5,"measure":25}`

	// Generation 1: one worker, stopped once at least two jobs are done.
	api1, ts1 := startGeneration(t, dir, 1)
	sub, code := postBatch(t, ts1, sweep)
	if code != http.StatusAccepted || sub.Total != 6 {
		t.Fatalf("submit = %d (%+v), want 202 with 6 jobs", code, sub)
	}
	deadline := time.Now().Add(2 * time.Minute)
	var k int
	for {
		status, code := getBatch(t, ts1, sub.ID)
		if code != http.StatusOK {
			t.Fatalf("batch poll = %d", code)
		}
		if k = status.Done; k >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch not 2 jobs done in time: %+v", status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	stopGeneration(expired, api1, ts1)
	// Let generation 1's cancelled jobs and batch snapshot run out, so
	// what the store holds does not depend on how soon process exit
	// would have stopped them.
	quiet, cancelQuiet := context.WithTimeout(context.Background(), time.Minute)
	defer cancelQuiet()
	if n := api1.pool.Drain(quiet); n != 0 {
		t.Fatalf("generation 1 still has %d jobs or snapshots in flight after Close", n)
	}

	// Generation 2: the store closed before the abandoned jobs were
	// cancelled, so it holds no partial snapshot of the batch.
	api2, ts2 := startGeneration(t, dir, 2)
	t.Cleanup(func() { ts2.Close(); api2.pool.Close(); api2.pool.Store().Close() })
	if _, code := getBatch(t, ts2, sub.ID); code != http.StatusNotFound {
		t.Fatalf("interrupted batch lookup after restart = %d, want 404", code)
	}
	resub, code := postBatch(t, ts2, sweep)
	if code != http.StatusAccepted || resub.ID != sub.ID {
		t.Fatalf("resubmit = %d (%s), want 202 for batch %s", code, resub.ID, sub.ID)
	}
	resumed := waitBatchDone(t, ts2, sub.ID)
	if resumed.Done != 6 || resumed.Failed != 0 {
		t.Fatalf("resumed batch = %+v, want 6 done and 0 failed", resumed)
	}
	completed := api2.pool.Stats().Completed
	t.Logf("%d jobs done before the drain, %d recomputed after the restart", k, completed)
	if completed > uint64(6-k) {
		t.Errorf("generation 2 computed %d jobs, want at most %d: the %d done before the drain are restored",
			completed, 6-k, k)
	}

	// The uninterrupted run.
	ts, _ := newTestServerOpts(t, runner.Options{Workers: 2}, serverConfig{})
	if _, code := postBatch(t, ts, sweep); code != http.StatusAccepted {
		t.Fatalf("uninterrupted submit = %d", code)
	}
	aggregatesEqual(t, waitBatchDone(t, ts, sub.ID).Aggregate, resumed.Aggregate)
}

// TestBatchEvicted404: without a store, a batch handle dropped by
// -max-batches answers 404, as a never-seen batch ID does.
func TestBatchEvicted404(t *testing.T) {
	ts, _ := newTestServerOpts(t, runner.Options{Workers: 2, MaxBatches: 1}, serverConfig{})

	subA, code := postBatch(t, ts, `{"workload":"memcached","configs":["base"],"seeds":[61],"warm":5,"measure":25}`)
	if code != http.StatusAccepted {
		t.Fatalf("batch A submit = %d", code)
	}
	// Batch B displaces A from the single retention slot.
	subB, code := postBatch(t, ts, `{"workload":"memcached","configs":["base"],"seeds":[62],"warm":5,"measure":25}`)
	if code != http.StatusAccepted {
		t.Fatalf("batch B submit = %d", code)
	}
	if _, code := getBatch(t, ts, subB.ID); code != http.StatusOK {
		t.Fatalf("batch B lookup = %d, want 200", code)
	}
	if _, code := getBatch(t, ts, subA.ID); code != http.StatusNotFound {
		t.Fatalf("evicted batch A lookup = %d, want 404", code)
	}
	if _, code := getBatch(t, ts, "b0123456789abcdef"); code != http.StatusNotFound {
		t.Fatalf("unknown batch lookup = %d, want 404", code)
	}
}

// TestBatchRestoredFromStore: with a store attached, an evicted
// batch's final snapshot remains readable — the store tier turns the
// 404 into a 200 serving the persisted aggregate.
func TestBatchRestoredFromStore(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ts, _ := newTestServerOpts(t, runner.Options{Workers: 2, MaxBatches: 1, Store: st}, serverConfig{})

	sub, code := postBatch(t, ts, `{"workload":"memcached","configs":["base","enhanced"],"seeds":[71],"warm":5,"measure":25}`)
	if code != http.StatusAccepted {
		t.Fatalf("batch submit = %d", code)
	}
	// Wait for completion, then for the async snapshot persist.
	waitBatchDone(t, ts, sub.ID)
	deadline := time.Now().Add(2 * time.Minute)
	for !st.Has(sub.ID) {
		if time.Now().After(deadline) {
			t.Fatal("batch snapshot never persisted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Displace the live handle; the store keeps the batch readable.
	if _, code := postBatch(t, ts, `{"workload":"memcached","configs":["base"],"seeds":[72],"warm":5,"measure":25}`); code != http.StatusAccepted {
		t.Fatalf("displacing batch submit = %d", code)
	}
	status, code := getBatch(t, ts, sub.ID)
	if code != http.StatusOK {
		t.Fatalf("restored batch lookup = %d, want 200 from the store tier", code)
	}
	if !status.Completed || status.Total != 2 || status.Done != 2 {
		t.Fatalf("restored batch status = %+v, want completed 2/2", status)
	}
	if len(status.Aggregate) == 0 {
		t.Error("restored batch lost its per-config aggregates")
	}
}
