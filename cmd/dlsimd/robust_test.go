package main

import (
	"bytes"
	"context"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/leakcheck"
	"repro/internal/runner"
)

// armed arms one injection point for the test's duration.
func armed(t *testing.T, point string, cfg faultinject.PointConfig) {
	t.Helper()
	faultinject.Enable(point, cfg)
	t.Cleanup(faultinject.Reset)
}

// postRaw posts a job body and returns the raw response (caller
// closes).
func postRaw(t *testing.T, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// decodeError decodes a structured error envelope.
func decodeError(t *testing.T, resp *http.Response) errorJSON {
	t.Helper()
	defer resp.Body.Close()
	var e errorJSON
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("error response is not structured JSON: %v", err)
	}
	return e
}

// pollState polls the job until it reaches a terminal-or-wanted state.
func pollState(t *testing.T, ts *httptest.Server, id string, want runner.JobState) jobResponse {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		job, code := getJob(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("poll status = %d", code)
		}
		if job.State == want {
			return job
		}
		if job.State == runner.StateDone || job.State == runner.StateFailed || time.Now().After(deadline) {
			t.Fatalf("job state = %s (err %q), want %s", job.State, job.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

const specA = `{"workload":"memcached","config":"base","seed":101,"warm":5,"measure":25}`
const specB = `{"workload":"memcached","config":"base","seed":102,"warm":5,"measure":25}`
const specC = `{"workload":"memcached","config":"base","seed":103,"warm":5,"measure":25}`

// TestShed429 is the acceptance criterion: with the admission queue
// full, POST /v1/jobs returns 429 with a Retry-After hint and a
// structured body, while resubmission of an in-flight spec still
// coalesces.
func TestShed429(t *testing.T) {
	leakcheck.Check(t)
	armed(t, "runner.execute", faultinject.PointConfig{Mode: faultinject.Hang, Prob: 1})
	ts, pool := newTestServerOpts(t, runner.Options{Workers: 1, MaxQueue: 1}, serverConfig{})

	subA, code := postJob(t, ts, specA)
	if code != http.StatusAccepted {
		t.Fatalf("submit A = %d, want 202", code)
	}
	pollState(t, ts, subA.ID, runner.StateRunning)
	if _, code := postJob(t, ts, specB); code != http.StatusAccepted {
		t.Fatalf("submit B = %d, want 202", code)
	}

	resp := postRaw(t, ts, specC)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	e := decodeError(t, resp)
	if e.Code != http.StatusTooManyRequests || !strings.Contains(e.Error, "queue full") {
		t.Errorf("shed body = %+v", e)
	}

	// The full queue still serves idempotent resubmission.
	if sub, code := postJob(t, ts, specA); code != http.StatusOK || !sub.Cached {
		t.Errorf("resubmit A = %d cached=%v, want 200 coalesced", code, sub.Cached)
	}
	if st := pool.Stats(); st.Shed != 1 {
		t.Errorf("stats shed = %d, want 1", st.Shed)
	}

	// Release the hang; both admitted jobs finish.
	faultinject.Reset()
	if job := pollState(t, ts, subA.ID, runner.StateDone); job.Error != "" {
		t.Errorf("job A failed: %s", job.Error)
	}
}

// TestInjectedPanicOverHTTP is the acceptance criterion end to end:
// an injected worker panic fails only that job — the service keeps
// serving, the job reports the failure, and /v1/stats records it.
func TestInjectedPanicOverHTTP(t *testing.T) {
	leakcheck.Check(t)
	armed(t, "runner.execute", faultinject.PointConfig{Mode: faultinject.Panic, Prob: 1, Count: 1})
	ts, pool := newTestServer(t)

	sub, code := postJob(t, ts, specA)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	var job jobResponse
	deadline := time.Now().Add(time.Minute)
	for {
		job, _ = getJob(t, ts, sub.ID)
		if job.State == runner.StateFailed || job.State == runner.StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if job.State != runner.StateFailed || !strings.Contains(job.Error, "panic") {
		t.Fatalf("job = %s err=%q, want failed with panic error", job.State, job.Error)
	}

	// The process survived: a clean job still runs on the same pool.
	sub2, code := postJob(t, ts, specB)
	if code != http.StatusAccepted {
		t.Fatalf("post-panic submit = %d", code)
	}
	if job := pollState(t, ts, sub2.ID, runner.StateDone); job.Result == nil {
		t.Error("post-panic job has no result")
	}
	st := pool.Stats()
	if st.Panics != 1 || st.Failed != 1 || st.Completed != 1 {
		t.Errorf("stats panics=%d failed=%d completed=%d, want 1/1/1", st.Panics, st.Failed, st.Completed)
	}
}

// TestHealthAndReady: /healthz stays 200; /readyz flips to 503 once
// draining and submissions are refused with a structured 503.
func TestHealthAndReady(t *testing.T) {
	leakcheck.Check(t)
	pool := runner.New(runner.Options{Workers: 1})
	srv := newServer(pool, serverConfig{})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); pool.Close() })

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if c := get("/healthz"); c != http.StatusOK {
		t.Errorf("healthz = %d, want 200", c)
	}
	if c := get("/readyz"); c != http.StatusOK {
		t.Errorf("readyz = %d, want 200", c)
	}

	srv.startDrain()
	if c := get("/healthz"); c != http.StatusOK {
		t.Errorf("draining healthz = %d, want 200 (liveness unaffected)", c)
	}
	if c := get("/readyz"); c != http.StatusServiceUnavailable {
		t.Errorf("draining readyz = %d, want 503", c)
	}
	resp := postRaw(t, ts, specA)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining submit = %d, want 503", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != http.StatusServiceUnavailable {
		t.Errorf("draining submit body = %+v", e)
	}
}

// TestGracefulDrainEndToEnd is the acceptance criterion: shutdown
// stops admission and drains the in-flight job to completion before
// the deadline, abandoning nothing.
func TestGracefulDrainEndToEnd(t *testing.T) {
	leakcheck.Check(t)
	pool := runner.New(runner.Options{Workers: 2})
	srv := newServer(pool, serverConfig{})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); pool.Close() })

	sub, code := postJob(t, ts, specA)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}

	// The shutdown sequence main() runs on SIGTERM.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if abandoned := srv.drain(ctx); abandoned != 0 {
		t.Fatalf("drain abandoned %d job(s), want 0", abandoned)
	}

	// The drained job is done and still queryable for late pollers.
	job, _ := getJob(t, ts, sub.ID)
	if job.State != runner.StateDone || job.Result == nil {
		t.Errorf("drained job = %s result=%v, want done with result", job.State, job.Result != nil)
	}
	// New work is refused with a structured 503.
	resp := postRaw(t, ts, specB)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestStructuredErrorsEverywhere: every failure path returns the
// {"error", "code"} envelope.
func TestStructuredErrorsEverywhere(t *testing.T) {
	ts, _ := newTestServer(t)

	resp := postRaw(t, ts, `{"workload":"nginx","config":"base","seed":1}`)
	if e := decodeError(t, resp); resp.StatusCode != http.StatusBadRequest || e.Code != http.StatusBadRequest || e.Error == "" {
		t.Errorf("bad spec: status=%d body=%+v", resp.StatusCode, e)
	}

	resp2, err := http.Get(ts.URL + "/v1/jobs/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	if e := decodeError(t, resp2); resp2.StatusCode != http.StatusNotFound || e.Code != http.StatusNotFound {
		t.Errorf("unknown job: status=%d body=%+v", resp2.StatusCode, e)
	}
}

// TestHandlerPanicRecovered: a panic inside a handler (injected at
// the dlsimd.submit point) is converted to a structured 500 and the
// server keeps serving.
func TestHandlerPanicRecovered(t *testing.T) {
	leakcheck.Check(t)
	armed(t, "dlsimd.submit", faultinject.PointConfig{Mode: faultinject.Panic, Prob: 1, Count: 1})
	ts, _ := newTestServer(t)

	resp := postRaw(t, ts, specA)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d, want 500", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != http.StatusInternalServerError || !strings.Contains(e.Error, "panic") {
		t.Errorf("panic body = %+v", e)
	}
	// Next request is served normally.
	if c := func() int {
		r, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		return r.StatusCode
	}(); c != http.StatusOK {
		t.Errorf("healthz after handler panic = %d", c)
	}
}

// TestRequestLogging: every request produces one structured JSON log
// line (method, path, status, duration, request ID), the request ID
// is echoed in the X-Request-ID header and the error body, and an
// incoming X-Request-ID is honored end to end.
func TestRequestLogging(t *testing.T) {
	var buf bytes.Buffer
	pool := runner.New(runner.Options{Workers: 1})
	ts := httptest.NewServer(newServer(pool, serverConfig{logger: log.New(&buf, "", 0)}))
	t.Cleanup(func() { ts.Close(); pool.Close() })

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/nope", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "corr-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "corr-123" {
		t.Errorf("X-Request-ID echoed = %q, want corr-123", got)
	}
	e := decodeError(t, resp)
	if e.RequestID != "corr-123" {
		t.Errorf("error body request_id = %q, want corr-123", e.RequestID)
	}

	var line struct {
		Msg       string  `json:"msg"`
		Method    string  `json:"method"`
		Path      string  `json:"path"`
		Status    int     `json:"status"`
		DurMS     float64 `json:"dur_ms"`
		RequestID string  `json:"request_id"`
		Time      string  `json:"time"`
	}
	raw := strings.TrimSpace(buf.String())
	if err := json.Unmarshal([]byte(raw), &line); err != nil {
		t.Fatalf("request log is not one JSON object: %v\nlog: %q", err, raw)
	}
	if line.Msg != "request" || line.Method != "GET" || line.Path != "/v1/jobs/nope" ||
		line.Status != 404 || line.RequestID != "corr-123" || line.Time == "" {
		t.Errorf("request log = %+v, want request GET /v1/jobs/nope 404 corr-123", line)
	}

	// Without an incoming header the server mints an ID and still
	// threads it through header, body, and log.
	buf.Reset()
	resp2, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	minted := resp2.Header.Get("X-Request-ID")
	if minted == "" {
		t.Fatal("no X-Request-ID minted")
	}
	if e2 := decodeError(t, resp2); e2.RequestID != minted {
		t.Errorf("error body request_id = %q, header %q", e2.RequestID, minted)
	}
	if !strings.Contains(buf.String(), minted) {
		t.Errorf("request log %q missing minted id %q", buf.String(), minted)
	}
}
