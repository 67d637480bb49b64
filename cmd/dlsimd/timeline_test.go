package main

import (
	"context"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
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

// TestTimelineClusterFetch is the acceptance harness: in a 3-node
// loopback cluster, the series fetched from the owner and the series
// fetched through a non-owner (forwarded hop) must be byte-identical,
// in both formats.
func TestTimelineClusterFetch(t *testing.T) {
	h := startCluster(t, 3, nil)
	node := h.nodes[0]

	spec := []byte(`{"workload":"memcached","config":"enhanced","seed":21,"warm":5,"measure":25,"timeline_interval":4096}`)
	var sub submitResponse
	if code, _ := httpDo(t, http.MethodPost, node.url+"/v1/jobs", spec, &sub); code >= 300 {
		t.Fatalf("submit = %d", code)
	}
	pollJob(t, node, sub.ID)

	owner, other := h.ownerOf(sub.ID), h.nonOwnerOf(sub.ID)
	if owner == nil || other == nil {
		t.Fatal("could not locate owner / non-owner nodes")
	}
	fetch := func(n *testNode, suffix string) (string, http.Header) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, n.url+"/v1/jobs/"+sub.ID+"/timeline"+suffix, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET timeline via %s = %d (body %s)", n.name, resp.StatusCode, b)
		}
		return string(b), resp.Header
	}

	direct, _ := fetch(owner, "")
	forwarded, hdr := fetch(other, "")
	if direct != forwarded {
		t.Errorf("forwarded JSON differs from owner JSON:\n  owner %s\n  fwd   %s", direct, forwarded)
	}
	if got := hdr.Get(cluster.NodeHeader); got != owner.name {
		t.Errorf("forwarded response X-Dlsim-Node = %q, want owner %q", got, owner.name)
	}
	if !strings.Contains(direct, `"series"`) || !strings.Contains(direct, `"points"`) {
		t.Errorf("timeline body missing series: %s", direct)
	}

	directCSV, _ := fetch(owner, "?format=csv")
	forwardedCSV, csvHdr := fetch(other, "?format=csv")
	if directCSV != forwardedCSV {
		t.Error("forwarded CSV differs from owner CSV")
	}
	if ct := csvHdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Errorf("forwarded CSV Content-Type = %q (relay dropped it?)", ct)
	}
}

// TestStatsClusterTier checks the /v1/stats cluster block: present in
// cluster mode with per-peer forward counts, absent standalone.
func TestStatsClusterTier(t *testing.T) {
	h := startCluster(t, 3, nil)
	node := h.nodes[0]

	// Generate at least one forwarded read: fetch a (nonexistent) ID
	// owned by another node through this one.
	id := "0000000000000000"
	for i := 0; node.cl.Owner(id) == node.name && i < 1000; i++ {
		id = runner.IDFromKey(strings.Repeat("x", i+1))
	}
	httpDo(t, http.MethodGet, node.url+"/v1/jobs/"+id, nil, nil)

	var st statsResponse
	if code, _ := httpDo(t, http.MethodGet, node.url+"/v1/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if st.Cluster == nil {
		t.Fatal("stats has no cluster tier in cluster mode")
	}
	if st.Cluster.Self != node.name || len(st.Cluster.Peers) != 3 {
		t.Errorf("cluster stats = %+v, want self=%s with 3 peers", st.Cluster, node.name)
	}
	if len(st.Cluster.Forwards) != 2 {
		t.Fatalf("per-peer forward rows = %d, want 2 (remote peers only)", len(st.Cluster.Forwards))
	}
	var ok uint64
	for _, f := range st.Cluster.Forwards {
		ok += f.OK + f.Miss + f.Error
	}
	if ok == 0 {
		t.Error("no forwards counted after a forwarded read")
	}

	// Standalone: no cluster block.
	ts, _ := newTestServer(t)
	var solo statsResponse
	if code, _ := httpDo(t, http.MethodGet, ts.URL+"/v1/stats", nil, &solo); code != http.StatusOK {
		t.Fatalf("standalone stats = %d", code)
	}
	if solo.Cluster != nil {
		t.Errorf("standalone stats grew a cluster tier: %+v", solo.Cluster)
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
