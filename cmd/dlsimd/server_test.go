package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/telemetry"
)

func newTestServer(t *testing.T) (*httptest.Server, *runner.Runner) {
	t.Helper()
	return newTestServerOpts(t, runner.Options{Workers: 2}, serverConfig{})
}

// newTestServerOpts serves a runner built from opts.  Like main, it
// gives the runner a tracer (the default 512-trace ring) unless opts
// carries one.
func newTestServerOpts(t *testing.T, opts runner.Options, cfg serverConfig) (*httptest.Server, *runner.Runner) {
	t.Helper()
	if opts.Tracer == nil {
		opts.Tracer = telemetry.NewTracer(0)
	}
	pool := runner.New(opts)
	ts := httptest.NewServer(newServer(pool, cfg))
	t.Cleanup(func() { ts.Close(); pool.Close() })
	return ts, pool
}

func postJob(t *testing.T, ts *httptest.Server, body string) (submitResponse, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out submitResponse
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp.StatusCode
}

// httpDo issues one request and decodes the JSON body into out (when
// non-nil and the status is < 300), returning status and headers.
func httpDo(t testing.TB, method, url string, body []byte, out any) (int, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(b, out); err != nil {
			t.Fatalf("decode %s %s: %v (body %q)", method, url, err, b)
		}
	}
	return resp.StatusCode, resp.Header
}

func getJob(t *testing.T, ts *httptest.Server, id string) (jobResponse, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out jobResponse
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp.StatusCode
}

// TestEndToEndJob drives a job through the HTTP API: submit, poll to
// completion, check the typed result, then resubmit and observe the
// cache hit in /v1/stats.
func TestEndToEndJob(t *testing.T) {
	ts, _ := newTestServer(t)
	const spec = `{"workload":"memcached","config":"enhanced","seed":9,"warm":5,"measure":25}`

	sub, code := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	if sub.ID == "" || sub.Cached {
		t.Fatalf("submit = %+v, want fresh job with id", sub)
	}

	// Poll until done.
	var job jobResponse
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var code int
		job, code = getJob(t, ts, sub.ID)
		if code != http.StatusOK {
			t.Fatalf("poll status = %d", code)
		}
		if job.State == runner.StateDone || job.State == runner.StateFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s after deadline", job.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if job.State != runner.StateDone {
		t.Fatalf("job failed: %s", job.Error)
	}
	res := job.Result
	if res == nil {
		t.Fatal("done job has no result")
	}
	if res.Instructions == 0 || res.Cycles == 0 {
		t.Errorf("empty counters: %+v", res)
	}
	if res.DistinctTrampolines == 0 {
		t.Error("no trampolines recorded")
	}
	got := 0
	for class, c := range res.Classes {
		if c.N == 0 || c.MeanUS <= 0 || c.P99US < c.P50US {
			t.Errorf("class %s: inconsistent latency summary %+v", class, c)
		}
		got += c.N
	}
	if got != 25 {
		t.Errorf("measured requests = %d, want 25", got)
	}

	// Identical resubmission coalesces onto the same job.
	sub2, code := postJob(t, ts, spec)
	if code != http.StatusOK {
		t.Errorf("resubmit status = %d, want 200", code)
	}
	if !sub2.Cached || sub2.ID != sub.ID {
		t.Errorf("resubmit = %+v, want cached with same id %s", sub2, sub.ID)
	}

	// Stats reflect the one simulation and one cache hit.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.CacheMisses != 1 || st.CacheHits != 1 {
		t.Errorf("stats misses=%d hits=%d, want 1/1", st.CacheMisses, st.CacheHits)
	}
	if st.Completed != 1 || st.JobP50MS <= 0 {
		t.Errorf("stats completed=%d p50=%.2f, want 1 and > 0", st.Completed, st.JobP50MS)
	}
	if len(st.Workloads) != len(runner.Workloads) {
		t.Errorf("stats workloads = %v, want all %d registered", st.Workloads, len(runner.Workloads))
	}
}

func TestSubmitValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []string{
		`{"workload":"nginx","config":"base","seed":1}`,
		`{"workload":"apache","config":"warp","seed":1}`,
		`{"workload":"apache","config":"base","bogus":true}`,
		`not json`,
		// A scaled budget past the int range (it used to wrap and
		// clamp to a 20-request job).
		`{"workload":"apache","config":"base","seed":1,"scale":1e18}`,
	}
	for _, body := range cases {
		if _, code := postJob(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("submit %q: status = %d, want 400", body, code)
		}
	}
}

func TestUnknownJob(t *testing.T) {
	ts, _ := newTestServer(t)
	if _, code := getJob(t, ts, "deadbeef"); code != http.StatusNotFound {
		t.Errorf("status = %d, want 404", code)
	}
}

// TestEvictedJobAnswers404 pins the HTTP contract of -max-retained
// without a store: an ID evicted from the result cache answers 404,
// as a never-seen ID does, and resubmitting the evicted spec
// recomputes under the same content-derived ID.
func TestEvictedJobAnswers404(t *testing.T) {
	ts, _ := newTestServerOpts(t, runner.Options{Workers: 1, MaxRetained: 1}, serverConfig{})
	specA := `{"workload":"memcached","config":"base","seed":1,"warm":5,"measure":25}`
	specB := `{"workload":"memcached","config":"base","seed":2,"warm":5,"measure":25}`

	waitDone := func(id string) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Minute)
		for {
			job, code := getJob(t, ts, id)
			if code == http.StatusOK && job.State == "done" {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s not done (last status %d)", id, code)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	a, code := postJob(t, ts, specA)
	if code != http.StatusAccepted {
		t.Fatalf("submit A status = %d, want 202", code)
	}
	waitDone(a.ID)
	b, _ := postJob(t, ts, specB)
	waitDone(b.ID)

	// B's completion evicted A (capacity 1).
	if _, code := getJob(t, ts, a.ID); code != http.StatusNotFound {
		t.Fatalf("GET evicted job = %d, want 404", code)
	}
	if _, code := getJob(t, ts, "feedfacecafebeef"); code != http.StatusNotFound {
		t.Fatalf("GET unknown job = %d, want 404", code)
	}

	// Resubmitting the evicted spec recomputes under the same ID,
	// which is then reachable again.
	re, code := postJob(t, ts, specA)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit A status = %d, want 202 (recompute)", code)
	}
	if re.ID != a.ID {
		t.Fatalf("recomputed ID %s != original %s", re.ID, a.ID)
	}
	waitDone(a.ID)
}
