package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faultinject"
	"repro/internal/leakcheck"
	"repro/internal/runner"
)

// chaosClient drives the cluster like an external caller under
// failure: it retries on transport errors and retryable statuses,
// resubmits work when told to, and asserts the cluster's core promise
// on every response it sees — no 5xx escapes unless the cluster
// actually attempted a failover first.
type chaosClient struct {
	t     *testing.T
	front *testNode
}

// do issues one request, enforcing the no-unexcused-5xx invariant.
// It returns (status, headers, body, ok); ok=false means a transport
// error (connection refused/reset), which callers treat as retryable.
func (c *chaosClient) do(method, path string, body []byte) (int, http.Header, []byte, bool) {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.front.url+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, nil, false
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, false
	}
	if resp.StatusCode >= 500 && resp.Header.Get(cluster.FailoverHeader) == "" {
		c.t.Fatalf("chaos invariant violated: %s %s answered %d without a failover attempt (body %s)",
			method, path, resp.StatusCode, b)
	}
	return resp.StatusCode, resp.Header, b, true
}

// runSweep submits the sweep and polls it to completion, resubmitting
// whenever the cluster loses the batch (owner death answers 503 until
// a resubmission recomputes it on a survivor).  It returns the final
// completed status.
func (c *chaosClient) runSweep(sweep []byte, disrupt func(st runner.BatchStatus)) runner.BatchStatus {
	c.t.Helper()
	deadline := time.Now().Add(3 * time.Minute)
	var id string
	submit := func() {
		for {
			code, _, body, ok := c.do(http.MethodPost, "/v1/batches", sweep)
			if ok && (code == http.StatusOK || code == http.StatusAccepted) {
				var sub batchSubmitResponse
				if err := json.Unmarshal(body, &sub); err != nil {
					c.t.Fatalf("decode batch submit: %v (%s)", err, body)
				}
				if id != "" && id != sub.ID {
					c.t.Fatalf("content-derived batch ID changed across resubmits: %s then %s", id, sub.ID)
				}
				id = sub.ID
				return
			}
			if time.Now().After(deadline) {
				c.t.Fatalf("batch submit never accepted (last code %d)", code)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	submit()
	for {
		code, _, body, ok := c.do(http.MethodGet, "/v1/batches/"+id, nil)
		switch {
		case !ok:
			// Transport-level failure: the front died or dropped the
			// connection; plain retry.
		case code == http.StatusOK:
			var st runner.BatchStatus
			if err := json.Unmarshal(body, &st); err != nil {
				c.t.Fatalf("decode batch status: %v (%s)", err, body)
			}
			if disrupt != nil {
				disrupt(st)
			}
			if st.Completed {
				return st
			}
		case code == http.StatusServiceUnavailable, code == http.StatusTooManyRequests:
			// The owner is unreachable (failed-over local miss) or
			// admission shed the forward; resubmitting recomputes the
			// batch on a surviving replica under the same ID.
			submit()
		case code == http.StatusNotFound, code == http.StatusGone:
			// A failover landed the poll on a replica that never saw
			// the batch.  The ID is still valid cluster-wide: resubmit.
			submit()
		default:
			c.t.Fatalf("batch poll = %d (%s)", code, body)
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("batch never completed (last code %d)", code)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// aggregatesEqual compares per-config aggregates bit-for-bit on every
// deterministic field.  SetupMS/MeasMS are wall-clock and excluded —
// they measure this machine, not the simulated one.
func aggregatesEqual(t *testing.T, want, got []runner.BatchAggregate) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("aggregate count %d != baseline %d\n  baseline %+v\n  cluster  %+v", len(got), len(want), want, got)
	}
	index := make(map[runner.ConfigKind]runner.BatchAggregate, len(want))
	for _, a := range want {
		index[a.Config] = a
	}
	for _, g := range got {
		w, ok := index[g.Config]
		if !ok {
			t.Fatalf("config %q in cluster aggregates but not baseline", g.Config)
		}
		if g.Jobs != w.Jobs ||
			math.Float64bits(g.MeanCPI) != math.Float64bits(w.MeanCPI) ||
			math.Float64bits(g.MeanUS) != math.Float64bits(w.MeanUS) ||
			math.Float64bits(g.P99US) != math.Float64bits(w.P99US) ||
			math.Float64bits(g.TrampPKI) != math.Float64bits(w.TrampPKI) {
			t.Fatalf("config %q aggregates diverge from single-node baseline:\n  baseline %+v\n  cluster  %+v", g.Config, w, g)
		}
	}
}

// TestChaosKillAndFaultsPreserveDeterminism is the chaos suite: a
// 3-node loopback cluster runs a sweep while the forwarding path
// takes injected faults (error, then delay, then hang) and the batch
// owner is hard-killed mid-batch.  The surviving cluster must
// converge to per-config aggregates bit-identical to a single
// unclustered node, with failovers recorded and never a bare 5xx.
func TestChaosKillAndFaultsPreserveDeterminism(t *testing.T) {
	leakcheck.Check(t)
	sweepJSON := []byte(`{"workload":"apache","configs":["base","enhanced"],"seeds":[1,2,3],"warm":5,"measure":40}`)

	// Baseline: the same sweep on one unclustered node.
	base, pool := newTestServer(t)
	resp, err := http.Post(base.URL+"/v1/batches", "application/json", bytes.NewReader(sweepJSON))
	if err != nil {
		t.Fatal(err)
	}
	var baseSub batchSubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&baseSub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var baseline runner.BatchStatus
	for deadline := time.Now().Add(2 * time.Minute); ; {
		b, ok := pool.Batch(baseSub.ID)
		if !ok {
			t.Fatalf("baseline batch %s vanished", baseSub.ID)
		}
		baseline = b.Status()
		if baseline.Completed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("baseline batch never completed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if baseline.Failed != 0 || baseline.Done != 6 {
		t.Fatalf("baseline batch done=%d failed=%d, want 6/0", baseline.Done, baseline.Failed)
	}

	// Chaos phase.  Fault injection starts in error mode on the
	// forwarding client; the disrupt callback escalates to delay and
	// hang modes and hard-kills the batch owner once work is running.
	faultinject.Enable("cluster.forward", faultinject.PointConfig{
		Mode: faultinject.Error, Prob: 0.3, Count: 8,
	})
	t.Cleanup(faultinject.Reset)

	h := startCluster(t, 3, func(i int, co *cluster.Options, ro *runner.Options) {
		// Hangs must resolve quickly: the per-hop timeout is the only
		// thing that unblocks a hung forward.
		co.ForwardTimeout = 300 * time.Millisecond
	})

	// Compute the batch ID up front so the kill targets the owner.
	var sweep runner.SweepSpec
	if err := json.Unmarshal(sweepJSON, &sweep); err != nil {
		t.Fatal(err)
	}
	batchID, err := sweep.ID()
	if err != nil {
		t.Fatal(err)
	}
	owner := h.ownerOf(batchID)
	front := h.nonOwnerOf(batchID)
	client := &chaosClient{t: t, front: front}

	phase := 0
	final := client.runSweep(sweepJSON, func(st runner.BatchStatus) {
		switch {
		case phase == 0 && st.Done+st.Running >= 1:
			// Hard kill mid-batch: the owner drops off the network with
			// jobs in flight.  Content-derived IDs make the survivors'
			// recompute bit-identical.  Faults escalate to delay mode.
			phase = 1
			faultinject.Enable("cluster.forward", faultinject.PointConfig{
				Mode: faultinject.Delay, Delay: 25 * time.Millisecond, Prob: 0.4, Count: 8,
			})
			owner.kill()
		case phase == 1 && st.Done >= 3:
			// Recompute is past halfway on a survivor: last escalation,
			// hangs that only the per-hop timeout can unblock.
			phase = 2
			faultinject.Enable("cluster.forward", faultinject.PointConfig{
				Mode: faultinject.Hang, Prob: 0.2, Count: 3,
			})
		}
	})

	faultinject.Disable("cluster.forward")

	if final.Failed != 0 || final.Done != 6 {
		t.Fatalf("chaos batch done=%d failed=%d, want 6/0", final.Done, final.Failed)
	}
	aggregatesEqual(t, baseline.Aggregate, final.Aggregate)

	if h.failovers() == 0 {
		t.Fatal("chaos run recorded no failovers despite a dead owner")
	}

	// The failovers are also on the public scrape of a survivor.
	code, _, metrics, ok := client.do(http.MethodGet, "/metrics", nil)
	if !ok || code != http.StatusOK {
		t.Fatalf("metrics scrape = %d ok=%v", code, ok)
	}
	var failoverSeries float64
	for _, line := range strings.Split(string(metrics), "\n") {
		if strings.HasPrefix(line, "dlsim_cluster_failovers_total") {
			if _, err := fmt.Sscanf(line, "dlsim_cluster_failovers_total %v", &failoverSeries); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
		}
	}
	if failoverSeries == 0 {
		t.Fatalf("dlsim_cluster_failovers_total is 0 on the front node's scrape:\n%s", metrics)
	}
}

// TestChaosInjectedForwardErrorsRetryTransparently arms only the
// error mode at a high rate with no kills: every client-visible
// response must still be a success (the per-peer retry and ring
// failover absorb the faults), proving injected forward errors never
// leak to callers as long as some replica can serve.
func TestChaosInjectedForwardErrorsRetryTransparently(t *testing.T) {
	leakcheck.Check(t)
	faultinject.Enable("cluster.forward", faultinject.PointConfig{
		Mode: faultinject.Error, Prob: 0.5, Count: 20,
	})
	t.Cleanup(faultinject.Reset)

	h := startCluster(t, 3, nil)
	client := &chaosClient{t: t, front: h.nodes[0]}

	spec := []byte(`{"workload":"firefox","config":"enhanced","seed":21,"warm":3,"measure":30}`)
	var id string
	for attempt := 0; ; attempt++ {
		code, _, body, ok := client.do(http.MethodPost, "/v1/jobs", spec)
		if ok && (code == http.StatusAccepted || code == http.StatusOK) {
			var sub submitResponse
			if err := json.Unmarshal(body, &sub); err != nil {
				t.Fatal(err)
			}
			id = sub.ID
			break
		}
		if attempt > 200 {
			t.Fatalf("submit never succeeded under injected errors (last code %d)", code)
		}
		time.Sleep(10 * time.Millisecond)
	}

	deadline := time.Now().Add(time.Minute)
	for {
		code, _, body, ok := client.do(http.MethodGet, "/v1/jobs/"+id, nil)
		if ok && code == http.StatusOK {
			var job jobResponse
			if err := json.Unmarshal(body, &job); err != nil {
				t.Fatal(err)
			}
			if job.State == runner.StateDone {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never completed under injected errors (last code %d)", code)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if faultinject.Injections("cluster.forward") == 0 {
		t.Fatal("fault point never fired: the test exercised nothing")
	}
}
