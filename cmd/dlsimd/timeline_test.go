package main

import (
	"context"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/timeline"
)

// runTimelineJob pushes a fine-grained-sampling job through the pool
// directly (the HTTP submit path is covered elsewhere) and returns its
// ID.
func runTimelineJob(t *testing.T, pool *runner.Runner, seed uint64) string {
	t.Helper()
	res, err := pool.Run(context.Background(), runner.JobSpec{
		Workload: "memcached", Config: runner.Enhanced, Seed: seed,
		Warm: 5, Measure: 25,
		TimelineInterval: timeline.MinInterval,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.ID
}

// TestTimelineEndpoint covers the single-node contract: JSON by
// default, CSV on request (either spelling), and precise 404s.
func TestTimelineEndpoint(t *testing.T) {
	ts, pool := newTestServer(t)
	id := runTimelineJob(t, pool, 4)

	var out timelineResponse
	code, _ := httpDo(t, http.MethodGet, ts.URL+"/v1/jobs/"+id+"/timeline", nil, &out)
	if code != http.StatusOK {
		t.Fatalf("GET timeline = %d, want 200", code)
	}
	if out.ID != id || out.Series == nil || len(out.Series.Points) < 2 {
		t.Fatalf("timeline response = %+v, want multi-point series for %s", out, id)
	}

	// CSV via query parameter.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/timeline?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Errorf("CSV Content-Type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 1+len(out.Series.Points) {
		t.Errorf("CSV has %d lines, want header + %d points", len(lines), len(out.Series.Points))
	}
	if !strings.HasPrefix(lines[0], "point,instructions,cycles") {
		t.Errorf("CSV header = %q", lines[0])
	}

	// CSV via Accept.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+id+"/timeline", nil)
	req.Header.Set("Accept", "text/csv")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	acceptBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(acceptBody) != string(body) {
		t.Error("Accept: text/csv and ?format=csv disagree")
	}

	// Unknown job.
	if code, _ := httpDo(t, http.MethodGet, ts.URL+"/v1/jobs/ffffffffffffffff/timeline", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown job timeline = %d, want 404", code)
	}

	// Timeline-off job: result servable, timeline 404.
	res, err := pool.Run(context.Background(), runner.JobSpec{
		Workload: "memcached", Config: runner.Base, Seed: 4,
		Warm: 5, Measure: 25, TimelineOff: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := httpDo(t, http.MethodGet, ts.URL+"/v1/jobs/"+res.ID, nil, nil); code != http.StatusOK {
		t.Errorf("timeline-off job result = %d, want 200", code)
	}
	if code, _ := httpDo(t, http.MethodGet, ts.URL+"/v1/jobs/"+res.ID+"/timeline", nil, nil); code != http.StatusNotFound {
		t.Errorf("timeline-off timeline = %d, want 404", code)
	}
}

// TestMetricsHistoryEndpoint covers /v1/metrics/history: 404 when
// disabled, index and named-series queries when enabled.
func TestMetricsHistoryEndpoint(t *testing.T) {
	tsOff, _ := newTestServer(t)
	if code, _ := httpDo(t, http.MethodGet, tsOff.URL+"/v1/metrics/history", nil, nil); code != http.StatusNotFound {
		t.Errorf("disabled history = %d, want 404", code)
	}

	pool := runner.New(runner.Options{Workers: 2})
	hist := telemetry.NewHistory(pool.Metrics(), 16, time.Second)
	ts, _ := newTestServerOpts(t, runner.Options{Workers: 2}, serverConfig{history: hist})
	_ = pool // hist snapshots pool's registry; the server only reads hist
	t.Cleanup(pool.Close)

	hist.Record(time.Now().Add(-time.Minute))
	hist.Record(time.Now())

	var idx historyIndexResponse
	if code, _ := httpDo(t, http.MethodGet, ts.URL+"/v1/metrics/history", nil, &idx); code != http.StatusOK {
		t.Fatalf("history index = %d", code)
	}
	if idx.Samples != 2 || len(idx.Names) == 0 || idx.IntervalS != 1 {
		t.Errorf("index = %+v, want 2 samples, names, interval 1s", idx)
	}

	name := idx.Names[0]
	var series historySeriesResponse
	if code, _ := httpDo(t, http.MethodGet, ts.URL+"/v1/metrics/history?name="+name, nil, &series); code != http.StatusOK {
		t.Fatalf("history series = %d", code)
	}
	if series.Name != name || len(series.Points) != 2 {
		t.Errorf("series = %+v, want 2 points of %q", series, name)
	}
	var recent historySeriesResponse
	if code, _ := httpDo(t, http.MethodGet, ts.URL+"/v1/metrics/history?name="+name+"&minutes=0.5", nil, &recent); code != http.StatusOK {
		t.Fatalf("bounded history = %d", code)
	}
	if len(recent.Points) != 1 {
		t.Errorf("minutes=0.5 returned %d points, want 1", len(recent.Points))
	}
	if code, _ := httpDo(t, http.MethodGet, ts.URL+"/v1/metrics/history?minutes=-3", nil, nil); code != http.StatusBadRequest {
		t.Errorf("negative minutes = %d, want 400", code)
	}
}

// TestRuntimeGauges checks the build-info and runtime gauges surface
// in /metrics.
func TestRuntimeGauges(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{"dlsim_build_info{", "dlsim_go_goroutines", "dlsim_go_heap_bytes",
		"dlsim_go_heap_live_bytes", "# TYPE dlsim_go_gc_cpu_seconds_total counter"} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The runtime/metrics readers must find their metrics: a renamed
	// or misspelled one reads as KindBad, which the gauge turns into 0.
	runtime.GC()
	for _, name := range []string{"/memory/classes/heap/objects:bytes", "/gc/heap/live:bytes"} {
		if v := runtimeMetric(name)(); v <= 0 {
			t.Errorf("%s reads %v", name, v)
		}
	}
	// The go_version label must carry a real toolchain version.
	if !strings.Contains(text, `go_version="go1.`) && !strings.Contains(text, `go_version="devel`) {
		t.Error("dlsim_build_info has no plausible go_version label")
	}
}
