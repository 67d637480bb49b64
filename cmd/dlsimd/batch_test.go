package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/runner"
)

func postBatch(t *testing.T, ts *httptest.Server, body string) (batchSubmitResponse, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/batches", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out batchSubmitResponse
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp.StatusCode
}

func getBatch(t *testing.T, ts *httptest.Server, id string) (runner.BatchStatus, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/batches/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out runner.BatchStatus
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp.StatusCode
}

// waitBatchDone polls GET /v1/batches/{id} until the batch completes.
func waitBatchDone(t *testing.T, ts *httptest.Server, id string) runner.BatchStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st, code := getBatch(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("batch %s status = %d, want 200", id, code)
		}
		if st.Completed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch %s still incomplete: %+v", id, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEndToEndBatch drives a sweep through the HTTP API: submit, poll
// the batch to completion, read per-config aggregates, resubmit and
// observe idempotency, and check the jobs stay individually
// addressable.
func TestEndToEndBatch(t *testing.T) {
	ts, _ := newTestServer(t)
	const sweep = `{"workload":"memcached","configs":["base","enhanced"],"seeds":[7,8],"warm":5,"measure":25}`

	sub, code := postBatch(t, ts, sweep)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	if sub.ID == "" || sub.Cached || sub.Total != 4 {
		t.Fatalf("submit = %+v, want fresh batch of 4", sub)
	}

	st := waitBatchDone(t, ts, sub.ID)
	if st.Done != 4 || st.Failed != 0 {
		t.Fatalf("completed batch = %+v, want 4 done", st)
	}
	if len(st.Aggregate) != 2 {
		t.Fatalf("aggregates = %+v, want both configs", st.Aggregate)
	}

	// Each job is individually addressable with the split wall clock.
	job, code := getJob(t, ts, st.Jobs[0].ID)
	if code != http.StatusOK || job.Result == nil {
		t.Fatalf("job %q = %d %+v, want 200 with result", st.Jobs[0].ID, code, job)
	}
	if job.Result.SetupMS <= 0 || job.Result.MeasureMS <= 0 {
		t.Errorf("result wall split = setup %.3fms measure %.3fms, want both > 0",
			job.Result.SetupMS, job.Result.MeasureMS)
	}
	if got := job.Result.SetupMS + job.Result.MeasureMS; got > job.Result.WallMS*1.01 || got < job.Result.WallMS*0.99 {
		t.Errorf("setup+measure = %.3fms, wall = %.3fms; want sum", got, job.Result.WallMS)
	}

	// Identical resubmission returns the same batch with 200.
	sub2, code := postBatch(t, ts, sweep)
	if code != http.StatusOK || !sub2.Cached || sub2.ID != sub.ID {
		t.Errorf("resubmit = %d %+v, want 200 cached id=%s", code, sub2, sub.ID)
	}
}

// TestBatchValidation: malformed and invalid sweeps answer 400 with a
// structured error; unknown batch IDs answer 404.
func TestBatchValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	bad := []string{
		`{"workload":"memcached"}`,                                            // no axes
		`{"workload":"nginx","configs":["base"],"seeds":[1]}`,                 // unknown workload
		`{"workload":"memcached","configs":["turbo"],"seeds":[1]}`,            // unknown config
		`{"workload":"memcached","configs":["base"],"seeds":[1],"bogus":1}`,   // unknown field
		`{"workload":"memcached","configs":["base"],"seeds":[1],"measure":5}`, // sub-minimum budget
	}
	for _, body := range bad {
		if _, code := postBatch(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", body, code)
		}
	}
	if _, code := getBatch(t, ts, "b0000000000000000"); code != http.StatusNotFound {
		t.Errorf("unknown batch id = %d, want 404", code)
	}
}

// TestSubmitRejectsSubMinimumMeasure pins the HTTP contract for the
// Normalize fix: an explicit measure below the runner's minimum is a
// 400, not a silent clamp.
func TestSubmitRejectsSubMinimumMeasure(t *testing.T) {
	ts, _ := newTestServer(t)
	if _, code := postJob(t, ts, `{"workload":"memcached","config":"base","seed":1,"measure":5}`); code != http.StatusBadRequest {
		t.Errorf("explicit measure=5 = %d, want 400", code)
	}
	// The default-budget path still accepts tiny scales (clamped).
	if _, code := postJob(t, ts, `{"workload":"memcached","config":"base","seed":1,"scale":0.001}`); code != http.StatusAccepted {
		t.Errorf("scale=0.001 = %d, want 202", code)
	}
}
