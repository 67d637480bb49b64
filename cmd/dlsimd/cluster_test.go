package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/leakcheck"
	"repro/internal/runner"
)

// testNode is one in-process cluster member: its own runner pool,
// cluster engine and HTTP listener on a loopback port.
type testNode struct {
	name string
	url  string
	srv  *http.Server
	pool *runner.Runner
	cl   *cluster.Cluster

	killed bool
}

// kill simulates a hard node death at the network level: the listener
// and its connections drop and the health prober stops, but the pool
// is left to the test cleanup (a dead process doesn't gracefully
// drain its jobs either).
func (n *testNode) kill() {
	if n.killed {
		return
	}
	n.killed = true
	_ = n.srv.Close()
	n.cl.Close()
}

// clusterHarness is an in-process N-node loopback cluster.
type clusterHarness struct {
	nodes []*testNode
}

// close kills every node and its pool.  Idempotent (kill guards
// itself and runner.Close tolerates repeats), so benchmarks can tear
// down per iteration under the same cleanup registration.
func (h *clusterHarness) close() {
	for _, node := range h.nodes {
		node.kill()
		node.pool.Close()
	}
}

// startCluster boots n dlsimd nodes on loopback ports, each fronting
// its own pool, all sharing one static member list.  Knobs are tuned
// for test speed: fast probes, fast retries, short breaker cooldown.
// mutate, when non-nil, adjusts each node's options before start.
func startCluster(t testing.TB, n int, mutate func(i int, co *cluster.Options, ro *runner.Options)) *clusterHarness {
	t.Helper()
	lns := make([]net.Listener, n)
	peers := make([]cluster.Peer, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers[i] = cluster.Peer{
			Name: fmt.Sprintf("n%d", i),
			URL:  "http://" + ln.Addr().String(),
		}
	}

	h := &clusterHarness{}
	for i := range lns {
		co := cluster.Options{
			Self:             peers[i].Name,
			Peers:            peers,
			ProbeInterval:    25 * time.Millisecond,
			ProbeTimeout:     time.Second,
			FailThreshold:    2,
			BreakerThreshold: 4,
			BreakerCooldown:  100 * time.Millisecond,
			ForwardTimeout:   2 * time.Second,
			Retry: cluster.RetryPolicy{
				MaxAttempts: 2,
				BaseDelay:   time.Millisecond,
				MaxDelay:    5 * time.Millisecond,
			},
		}
		ro := runner.Options{Workers: 2}
		if mutate != nil {
			mutate(i, &co, &ro)
		}
		pool := runner.New(ro)
		co.Metrics = pool.Metrics()
		cl, err := cluster.New(co)
		if err != nil {
			pool.Close()
			t.Fatal(err)
		}
		api := newServer(pool, serverConfig{cluster: cl})
		srv := &http.Server{Handler: api}
		node := &testNode{name: peers[i].Name, url: peers[i].URL, srv: srv, pool: pool, cl: cl}
		go func() { _ = srv.Serve(lns[i]) }()
		h.nodes = append(h.nodes, node)
	}
	t.Cleanup(h.close)
	return h
}

// ownerOf returns the harness node owning the ID.
func (h *clusterHarness) ownerOf(id string) *testNode {
	name := h.nodes[0].cl.Owner(id)
	for _, n := range h.nodes {
		if n.name == name {
			return n
		}
	}
	return nil
}

// nonOwnerOf returns a live node that does not own the ID.
func (h *clusterHarness) nonOwnerOf(id string) *testNode {
	name := h.nodes[0].cl.Owner(id)
	for _, n := range h.nodes {
		if n.name != name && !n.killed {
			return n
		}
	}
	return nil
}

// failovers sums the failover counters across live nodes.
func (h *clusterHarness) failovers() uint64 {
	var sum uint64
	for _, n := range h.nodes {
		if !n.killed {
			sum += n.cl.Failovers()
		}
	}
	return sum
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

// pollJob polls a job through the given node until it is done.
func pollJob(t testing.TB, node *testNode, id string) jobResponse {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		var job jobResponse
		code, _ := httpDo(t, http.MethodGet, node.url+"/v1/jobs/"+id, nil, &job)
		if code == http.StatusOK && (job.State == runner.StateDone || job.State == runner.StateFailed) {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not done before deadline (last code %d, state %q)", id, code, job.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterRoutesToOwnerAndDedups submits the same spec through
// every node and checks that routing by content-derived ID lands all
// copies on one owner: one fresh 202, then cache hits (200) no matter
// which node fronted the request, and result reads forward to the
// owner from anywhere.
func TestClusterRoutesToOwnerAndDedups(t *testing.T) {
	leakcheck.Check(t)
	h := startCluster(t, 3, nil)
	spec := []byte(`{"workload":"apache","config":"enhanced","seed":7,"warm":3,"measure":20}`)

	var first submitResponse
	code, hdr := httpDo(t, http.MethodPost, h.nodes[0].url+"/v1/jobs", spec, &first)
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", code)
	}
	owner := h.nodes[0].cl.Owner(first.ID)
	if got := hdr.Get(cluster.NodeHeader); got != owner {
		t.Fatalf("submit served by %q, want ring owner %q", got, owner)
	}

	for _, n := range h.nodes {
		var dup submitResponse
		code, hdr := httpDo(t, http.MethodPost, n.url+"/v1/jobs", spec, &dup)
		if code != http.StatusOK || !dup.Cached || dup.ID != first.ID {
			t.Fatalf("resubmit via %s = %d %+v, want 200 cached id %s", n.name, code, dup, first.ID)
		}
		if got := hdr.Get(cluster.NodeHeader); got != owner {
			t.Fatalf("resubmit via %s served by %q, want %q", n.name, got, owner)
		}
	}

	// Reads from any node forward to the owner and agree bit-for-bit
	// on the deterministic counters.
	base := pollJob(t, h.nodes[0], first.ID)
	for _, n := range h.nodes[1:] {
		job := pollJob(t, n, first.ID)
		if job.Result == nil || base.Result == nil {
			t.Fatalf("missing result: base=%v node=%v", base.Result, job.Result)
		}
		if job.Result.Instructions != base.Result.Instructions ||
			job.Result.Cycles != base.Result.Cycles ||
			job.Result.TrampInstrs != base.Result.TrampInstrs {
			t.Fatalf("results diverge across nodes: %+v vs %+v", base.Result, job.Result)
		}
	}
}

// TestClusterBatchRouting checks sweep submissions route by their
// content-derived batch ID and the batch is pollable from any node.
func TestClusterBatchRouting(t *testing.T) {
	leakcheck.Check(t)
	h := startCluster(t, 3, nil)
	sweep := []byte(`{"workload":"memcached","configs":["base","enhanced"],"seeds":[1,2],"warm":3,"measure":25}`)

	var sub batchSubmitResponse
	code, hdr := httpDo(t, http.MethodPost, h.nodes[1].url+"/v1/batches", sweep, &sub)
	if code != http.StatusAccepted {
		t.Fatalf("batch submit = %d, want 202", code)
	}
	owner := h.nodes[0].cl.Owner(sub.ID)
	if got := hdr.Get(cluster.NodeHeader); got != owner {
		t.Fatalf("batch served by %q, want owner %q", got, owner)
	}
	if sub.Total != 4 {
		t.Fatalf("batch total = %d, want 4", sub.Total)
	}

	// Identical sweep through another node coalesces.
	var dup batchSubmitResponse
	code, _ = httpDo(t, http.MethodPost, h.nodes[2].url+"/v1/batches", sweep, &dup)
	if code != http.StatusOK || !dup.Cached || dup.ID != sub.ID {
		t.Fatalf("duplicate sweep = %d %+v, want 200 cached id %s", code, dup, sub.ID)
	}

	// Progress polls forward from every node to the one copy.
	deadline := time.Now().Add(time.Minute)
	for {
		var st runner.BatchStatus
		code, _ := httpDo(t, http.MethodGet, h.nodes[0].url+"/v1/batches/"+sub.ID, nil, &st)
		if code != http.StatusOK {
			t.Fatalf("batch poll = %d", code)
		}
		if st.Completed {
			if st.Done != 4 || st.Failed != 0 {
				t.Fatalf("batch finished %d done %d failed, want 4/0", st.Done, st.Failed)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("batch not completed before deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterReadyzReportsDegraded kills one node and watches the
// others' /readyz flip from ready to degraded with per-peer detail.
func TestClusterReadyzReportsDegraded(t *testing.T) {
	leakcheck.Check(t)
	h := startCluster(t, 3, nil)

	var ready readyzResponse
	code, _ := httpDo(t, http.MethodGet, h.nodes[0].url+"/readyz", nil, &ready)
	if code != http.StatusOK || ready.Status != "ready" {
		t.Fatalf("readyz = %d %+v, want 200 ready", code, ready)
	}
	if ready.Cluster == nil || len(ready.Cluster.Peers) != 3 {
		t.Fatalf("readyz cluster = %+v, want 3 peers", ready.Cluster)
	}

	h.nodes[2].kill()

	deadline := time.Now().Add(5 * time.Second)
	for {
		var r readyzResponse
		code, _ := httpDo(t, http.MethodGet, h.nodes[0].url+"/readyz", nil, &r)
		if code != http.StatusOK {
			t.Fatalf("readyz = %d, want 200 (degraded is still servable)", code)
		}
		if r.Status == "degraded" && r.Cluster != nil && r.Cluster.Degraded {
			var down *cluster.PeerStatus
			for i := range r.Cluster.Peers {
				if r.Cluster.Peers[i].Name == "n2" {
					down = &r.Cluster.Peers[i]
				}
			}
			if down == nil || down.Healthy {
				t.Fatalf("degraded readyz misses dead peer: %+v", r.Cluster)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz never reported degraded: %+v", r)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClusterFailoverRecomputesOnDeadOwner kills a job's owner after
// completion and checks the failure story end to end: the first
// failed-over read answers 503 + Retry-After (the owner may still
// hold the result — 404 would overclaim), a resubmission recomputes
// on a surviving replica, and the recomputed counters are
// bit-identical to the original.
func TestClusterFailoverRecomputesOnDeadOwner(t *testing.T) {
	leakcheck.Check(t)
	h := startCluster(t, 3, nil)
	spec := []byte(`{"workload":"mysql","config":"base","seed":11,"warm":3,"measure":20}`)

	var sub submitResponse
	code, _ := httpDo(t, http.MethodPost, h.nodes[0].url+"/v1/jobs", spec, &sub)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	owner := h.ownerOf(sub.ID)
	front := h.nonOwnerOf(sub.ID)
	orig := pollJob(t, front, sub.ID)
	if orig.Result == nil {
		t.Fatalf("original job has no result: %+v", orig)
	}

	owner.kill()

	// Reads now fail over; the front misses locally and must answer
	// retryable, flagged as a failover, never a 404.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var job jobResponse
		code, hdr := httpDo(t, http.MethodGet, front.url+"/v1/jobs/"+sub.ID, nil, &job)
		if code == http.StatusNotFound || code == http.StatusGone {
			t.Fatalf("failed-over read = %d, want 503 or a served result", code)
		}
		if code == http.StatusServiceUnavailable {
			if hdr.Get("Retry-After") == "" {
				t.Fatal("503 after failover without Retry-After")
			}
			if hdr.Get(cluster.FailoverHeader) == "" {
				t.Fatal("503 after failover without failover marker")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("read never failed over (last code %d)", code)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Resubmitting the spec recomputes on a survivor; content-derived
	// IDs make the replacement bit-identical.
	deadline = time.Now().Add(10 * time.Second)
	var re submitResponse
	for {
		code, _ = httpDo(t, http.MethodPost, front.url+"/v1/jobs", spec, &re)
		if code == http.StatusAccepted || code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resubmit never accepted (last code %d)", code)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if re.ID != sub.ID {
		t.Fatalf("recomputed job ID %s != original %s", re.ID, sub.ID)
	}
	redo := pollJob(t, front, sub.ID)
	if redo.Result == nil {
		t.Fatalf("recomputed job has no result: %+v", redo)
	}
	if redo.Result.Instructions != orig.Result.Instructions ||
		redo.Result.Cycles != orig.Result.Cycles ||
		redo.Result.TrampInstrs != orig.Result.TrampInstrs ||
		redo.Result.Resolutions != orig.Result.Resolutions {
		t.Fatalf("recompute diverged:\n  orig %+v\n  redo %+v", orig.Result, redo.Result)
	}
	if h.failovers() == 0 {
		t.Fatal("no failovers recorded despite dead owner")
	}

	// The cluster instrument set is on the shared scrape.
	var buf bytes.Buffer
	resp, err := http.Get(front.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(&buf, resp.Body)
	resp.Body.Close()
	for _, metric := range []string{"dlsim_cluster_forwards_total", "dlsim_cluster_failovers_total", "dlsim_cluster_peer_up"} {
		if !strings.Contains(buf.String(), metric) {
			t.Fatalf("/metrics missing %s", metric)
		}
	}
}

// TestClusterForwardedFailoverMissAnswers503 pins the serving side of
// the failed-over-miss contract on an intermediate replica: a
// forwarded GET that carries the failover marker and misses locally
// answers 503 + Retry-After + miss marker (the dead owner may still
// hold the result), while the same miss on a plain owner-forwarded
// GET stays an honest 404.
func TestClusterForwardedFailoverMissAnswers503(t *testing.T) {
	leakcheck.Check(t)
	h := startCluster(t, 3, nil)
	const unknown = "job-deadbeef"

	get := func(failover bool) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, h.nodes[0].url+"/v1/jobs/"+unknown, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(cluster.ForwardedByHeader, "test")
		if failover {
			req.Header.Set(cluster.FailoverHeader, "1")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if resp := get(false); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("owner-forwarded miss = %d, want 404", resp.StatusCode)
	}
	resp := get(true)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("failed-over miss = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("failed-over miss without Retry-After")
	}
	if resp.Header.Get(cluster.MissHeader) != "1" {
		t.Error("failed-over miss without the miss marker — the forwarder would count it as a peer fault")
	}
}

// TestClusterForwardedRequestServedLocally checks the one-hop rule at
// the HTTP layer: a request carrying the forwarded marker is served
// where it lands even when the node does not own the ID.
func TestClusterForwardedRequestServedLocally(t *testing.T) {
	leakcheck.Check(t)
	h := startCluster(t, 3, nil)
	spec := []byte(`{"workload":"apache","config":"base","seed":3,"warm":3,"measure":25}`)

	// Pick a node that does NOT own the job and submit with the
	// forwarded marker set: it must compute locally, not re-forward.
	norm := runner.JobSpec{Workload: "apache", Config: "base", Seed: 3, Warm: 3, Measure: 25}
	n, err := norm.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	key, err := n.Key()
	if err != nil {
		t.Fatal(err)
	}
	id := runner.IDFromKey(key)
	front := h.nonOwnerOf(id)

	req, err := http.NewRequest(http.MethodPost, front.url+"/v1/jobs", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(cluster.ForwardedByHeader, "test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("forwarded submit = %d, want 202", resp.StatusCode)
	}
	if got := resp.Header.Get(cluster.NodeHeader); got != front.name {
		t.Fatalf("forwarded submit served by %q, want local node %q", got, front.name)
	}
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	if sub.ID != id {
		t.Fatalf("forwarded submit ID %s, want %s", sub.ID, id)
	}
}
