package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/runner"
)

// benchSweepJSON is the sweep both BenchmarkSweep sides run: 12 jobs,
// enough to keep every worker busy without dwarfing the forwarding
// cost being compared.
var benchSweepJSON = []byte(`{"workload":"apache","configs":["base","enhanced"],"seeds":[1,2,3,4,5,6],"warm":5,"measure":40}`)

// runBenchSweep submits the sweep at base URL and polls to
// completion.  Every iteration gets a fresh pool, so jobs always
// recompute: the benchmark measures end-to-end service throughput,
// not the result cache.
func runBenchSweep(b *testing.B, url string) {
	b.Helper()
	resp, err := http.Post(url+"/v1/batches", "application/json", bytes.NewReader(benchSweepJSON))
	if err != nil {
		b.Fatal(err)
	}
	var sub batchSubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var st runner.BatchStatus
		code, _ := httpDo(b, http.MethodGet, url+"/v1/batches/"+sub.ID, nil, &st)
		if code != http.StatusOK {
			b.Fatalf("batch poll = %d", code)
		}
		if st.Completed {
			if st.Failed != 0 {
				b.Fatalf("batch failed %d jobs", st.Failed)
			}
			return
		}
		if time.Now().After(deadline) {
			b.Fatal("batch never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// BenchmarkSweepSingleNode is the unclustered baseline: one dlsimd
// node runs the sweep locally.
func BenchmarkSweepSingleNode(b *testing.B) {
	b.ReportMetric(12, "jobs/op")
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pool := runner.New(runner.Options{Workers: 4})
		ts := httptest.NewServer(newServer(pool, serverConfig{}))
		b.StartTimer()
		runBenchSweep(b, ts.URL)
		b.StopTimer()
		ts.Close()
		pool.Close()
		b.StartTimer()
	}
}

// BenchmarkSweepThreeNode runs the same sweep through a healthy
// 3-node loopback cluster, submitted via a node that does not own the
// batch so every submission and poll pays one forwarding hop.  The
// gap to BenchmarkSweepSingleNode is the cluster tax at N=3 on one
// machine (loopback RTT + JSON relay), bought for horizontal
// failover; real deployments spread the pools over machines.
func BenchmarkSweepThreeNode(b *testing.B) {
	var sweep runner.SweepSpec
	if err := json.Unmarshal(benchSweepJSON, &sweep); err != nil {
		b.Fatal(err)
	}
	batchID, err := sweep.ID()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(12, "jobs/op")
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := startCluster(b, 3, func(_ int, co *cluster.Options, ro *runner.Options) {
			ro.Workers = 4
			co.ProbeInterval = time.Hour // healthy run: probes off the profile
		})
		front := h.nonOwnerOf(batchID)
		b.StartTimer()
		runBenchSweep(b, front.url)
		b.StopTimer()
		h.close()
		b.StartTimer()
	}
}

// BenchmarkFailoverLatency measures the client-visible cost of one
// failed-over read: the batch owner is dead (already marked down by
// probes), so every GET walks the ring past it and is answered by the
// next replica.  ns/op is the mean round-trip; p99_us is reported as
// a custom metric for the tail.
func BenchmarkFailoverLatency(b *testing.B) {
	h := startCluster(b, 3, nil)
	defer h.close()

	// A completed job whose ring owner will die: submit, wait, kill.
	spec := []byte(`{"workload":"mysql","config":"base","seed":11,"warm":3,"measure":20}`)
	var sub submitResponse
	code, _ := httpDo(b, http.MethodPost, h.nodes[0].url+"/v1/jobs", spec, &sub)
	if code != http.StatusAccepted {
		b.Fatalf("submit = %d", code)
	}
	owner := h.ownerOf(sub.ID)
	front := h.nonOwnerOf(sub.ID)
	pollJob(b, front, sub.ID)
	owner.kill()

	// Wait until probes mark the owner down so the measured path is
	// steady-state failover (ring skip), not first-detection.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var r readyzResponse
		if code, _ := httpDo(b, http.MethodGet, front.url+"/readyz", nil, &r); code == http.StatusOK && r.Status == "degraded" {
			break
		}
		if time.Now().After(deadline) {
			b.Fatal("dead owner never marked down")
		}
		time.Sleep(10 * time.Millisecond)
	}

	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		code, hdr := httpDo(b, http.MethodGet, front.url+"/v1/jobs/"+sub.ID, nil, nil)
		lat = append(lat, time.Since(start))
		// The owner computed the job; the failover lands on a replica
		// without it, whose answer must be the retryable miss — still
		// a complete, headered response, which is what we time.
		if code != http.StatusServiceUnavailable && code != http.StatusOK {
			b.Fatalf("failed-over read = %d", code)
		}
		if hdr.Get(cluster.FailoverHeader) == "" {
			b.Fatal("response missing failover marker")
		}
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[(len(lat)*99)/100]
	b.ReportMetric(float64(p99.Microseconds()), "p99_us")
}
