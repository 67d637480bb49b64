package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/runner"
	"repro/internal/telemetry"
)

// scrape fetches GET /metrics and returns the exposition text.
func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.TextContentType {
		t.Errorf("content type = %q, want %q", ct, telemetry.TextContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestMetricsEndpoint is the acceptance criterion: one scrape covers
// the runner pool, the cache, panic/shed counters, per-workload
// simulation counters, fault-injection points, and the HTTP front end
// — all under stable names.
func TestMetricsEndpoint(t *testing.T) {
	faultinject.Enable("dlsimd.submit", faultinject.PointConfig{Mode: faultinject.Delay, Prob: 0})
	t.Cleanup(faultinject.Reset)
	ts, _ := newTestServer(t)

	sub, code := postJob(t, ts, specA)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	pollState(t, ts, sub.ID, runner.StateDone)
	if _, code := postJob(t, ts, specA); code != http.StatusOK {
		t.Fatalf("resubmit status = %d, want cached 200", code)
	}

	out := scrape(t, ts)
	for _, want := range []string{
		// Runner pool and queue.
		"# TYPE dlsim_runner_workers gauge",
		"dlsim_runner_jobs_completed_total 1",
		"dlsim_runner_queue_wait_ms_count",
		"dlsim_runner_job_wall_ms_count 1",
		// Cache effectiveness.
		"dlsim_runner_cache_misses_total 1",
		"dlsim_runner_cache_hits_total 1",
		// Panic/shed counters exist even at zero.
		"dlsim_runner_panics_total 0",
		"dlsim_runner_shed_total 0",
		// Per-workload simulation counters.
		`dlsim_sim_instructions_total{workload="memcached",config="base"}`,
		`dlsim_sim_abtb_redirects_total{workload="memcached",config="base"}`,
		// Fault-injection points (armed above, synced at scrape; under
		// `make faults` the environment arms extra points, so assert
		// presence rather than an exact armed count).
		`dlsim_fault_point_hits{point="dlsimd.submit"}`,
		"# TYPE dlsim_fault_points_armed gauge",
		// HTTP front end and process.
		`dlsim_http_requests_total{route="/v1/jobs",method="POST",code="202"} 1`,
		`dlsim_http_requests_total{route="/v1/jobs",method="POST",code="200"} 1`,
		"# TYPE dlsim_http_request_ms histogram",
		"# TYPE dlsim_uptime_seconds gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// A job runs once: nothing retries, so nothing counts retries.
	for _, gone := range []string{"dlsim_runner_retries_total", "dlsim_runner_backoff_ms"} {
		if strings.Contains(out, gone) {
			t.Errorf("exposition still carries %s", gone)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "dlsim_fault_points_armed ") && strings.HasSuffix(line, " 0") {
			t.Errorf("armed-points gauge reads 0 with a point armed: %q", line)
		}
	}
}

// TestTraceIDPropagation is the acceptance criterion: the ID returned
// by POST /v1/jobs addresses both the job and its trace, and the
// trace shows the phase breakdown with per-phase durations.
func TestTraceIDPropagation(t *testing.T) {
	ts, _ := newTestServer(t)

	sub, code := postJob(t, ts, specB)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	pollState(t, ts, sub.ID, runner.StateDone)

	resp, err := http.Get(ts.URL + "/v1/traces/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/traces/%s status = %d", sub.ID, resp.StatusCode)
	}
	var tr telemetry.TraceJSON
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.ID != sub.ID {
		t.Errorf("trace id = %s, want job id %s", tr.ID, sub.ID)
	}
	if tr.Root.Name != "job" || tr.Root.InProgress {
		t.Errorf("root = %+v, want finished job span", tr.Root)
	}
	if tr.Root.Attrs["workload"] != "memcached" {
		t.Errorf("root attrs = %v", tr.Root.Attrs)
	}
	names := make([]string, len(tr.Root.Children))
	for i, c := range tr.Root.Children {
		names[i] = c.Name
		if c.DurMS < 0 {
			t.Errorf("phase %s has negative duration", c.Name)
		}
	}
	if got := strings.Join(names, " "); got != "queued attempt" {
		t.Errorf("phases = %q, want \"queued attempt\"", got)
	}

	// Unknown trace IDs 404 with the structured envelope.
	resp2, err := http.Get(ts.URL + "/v1/traces/nope")
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace status = %d, want 404", resp2.StatusCode)
	}
	if e := decodeError(t, resp2); e.Code != http.StatusNotFound || e.RequestID == "" {
		t.Errorf("error envelope = %+v, want 404 with request id", e)
	}
}

// TestStatsMatchesMetrics: /v1/stats and /metrics are two views over
// the same registry, so their numbers cannot drift.
func TestStatsMatchesMetrics(t *testing.T) {
	ts, _ := newTestServer(t)
	sub, _ := postJob(t, ts, specC)
	pollState(t, ts, sub.ID, runner.StateDone)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	out := scrape(t, ts)
	if !strings.Contains(out, "dlsim_runner_jobs_completed_total 1") || st.Completed != 1 {
		t.Errorf("completed: stats=%d, exposition:\n%s", st.Completed, out)
	}
	if st.JobP50MS <= 0 || st.JobP99MS < st.JobP50MS {
		t.Errorf("latency quantiles p50=%.3f p99=%.3f", st.JobP50MS, st.JobP99MS)
	}
	if st.UptimeS < 0 {
		t.Errorf("uptime = %f", st.UptimeS)
	}
}

// TestFailedJobTraceOverHTTP: a job whose one execution fails reads
// failed with the injected error, its trace shows exactly one queued
// and one attempt phase, and resubmitting its spec answers the cached
// failure without running it again.
func TestFailedJobTraceOverHTTP(t *testing.T) {
	armed(t, "runner.execute", faultinject.PointConfig{Mode: faultinject.Error, Prob: 1, Count: 1})
	ts, _ := newTestServer(t)

	sub, _ := postJob(t, ts, specA)
	job := pollState(t, ts, sub.ID, runner.StateFailed)
	if !strings.Contains(job.Error, "injected error at runner.execute") || job.Result != nil {
		t.Errorf("job = %+v, want failed with the injected error and no result", job)
	}

	resp, err := http.Get(ts.URL + "/v1/traces/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr telemetry.TraceJSON
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, c := range tr.Root.Children {
		names = append(names, c.Name)
	}
	if got := strings.Join(names, " "); got != "queued attempt" {
		t.Errorf("phases = %q, want one queued and one attempt", got)
	}
	if len(names) == 2 && tr.Root.Children[1].Attrs["error"] == "" {
		t.Error("attempt span carries no error")
	}

	again, code := postJob(t, ts, specA)
	if code != http.StatusOK || !again.Cached || again.ID != sub.ID || again.State != runner.StateFailed {
		t.Errorf("resubmit = %d %+v, want 200 cached failed %s", code, again, sub.ID)
	}
	out := scrape(t, ts)
	for _, want := range []string{"dlsim_runner_jobs_failed_total 1", "dlsim_runner_cache_misses_total 1", "dlsim_runner_exec_ms_count 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
