package telemetry

import (
	"strconv"
	"strings"
	"testing"
)

// TestExpositionGolden locks the exposition format byte for byte on a
// small registry: HELP/TYPE lines, counter/gauge samples, labelled
// children in sorted order, cumulative histogram buckets with
// sum/count, and label escaping.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("dlsim_jobs_completed_total", "Jobs completed.").Add(3)
	r.Gauge("dlsim_queue_depth", "Jobs waiting.").Set(2)
	v := r.CounterVec("dlsim_sim_abtb_redirects_total", "ABTB redirects.", "workload", "config")
	v.With("mysql", "enhanced").Add(9)
	v.With("apache", "enhanced").Add(7)
	h := r.Histogram("dlsim_job_wall_ms", "Job wall clock.", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	r.GaugeFunc("dlsim_up", "Always one.", func() float64 { return 1 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP dlsim_jobs_completed_total Jobs completed.
# TYPE dlsim_jobs_completed_total counter
dlsim_jobs_completed_total 3
# HELP dlsim_queue_depth Jobs waiting.
# TYPE dlsim_queue_depth gauge
dlsim_queue_depth 2
# HELP dlsim_sim_abtb_redirects_total ABTB redirects.
# TYPE dlsim_sim_abtb_redirects_total counter
dlsim_sim_abtb_redirects_total{workload="apache",config="enhanced"} 7
dlsim_sim_abtb_redirects_total{workload="mysql",config="enhanced"} 9
# HELP dlsim_job_wall_ms Job wall clock.
# TYPE dlsim_job_wall_ms histogram
dlsim_job_wall_ms_bucket{le="1"} 1
dlsim_job_wall_ms_bucket{le="10"} 2
dlsim_job_wall_ms_bucket{le="+Inf"} 3
dlsim_job_wall_ms_sum 55.5
dlsim_job_wall_ms_count 3
# HELP dlsim_up Always one.
# TYPE dlsim_up gauge
dlsim_up 1
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("x_total", "x", "k").With("a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `x_total{k="a\"b\\c\nd"} 1`) {
		t.Errorf("escaping wrong:\n%s", b.String())
	}
}

// TestExpositionParses re-parses every sample line: metric names are
// well-formed, values are numbers, histogram bucket series are
// cumulative (non-decreasing) and end at +Inf == count.
func TestExpositionParses(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ms", "latency", ExponentialBuckets(0.5, 2, 6))
	for i := 0; i < 100; i++ {
		h.Observe(float64(i))
	}
	r.Counter("a_total", "a").Add(1)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}

	var lastBucket, count float64
	lastBucket = -1
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("sample line %q has no value", line)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("sample %q: value %q not a number: %v", name, val, err)
		}
		switch {
		case strings.HasPrefix(name, "lat_ms_bucket"):
			if f < lastBucket {
				t.Errorf("bucket series not cumulative at %q", line)
			}
			lastBucket = f
		case name == "lat_ms_count":
			count = f
		}
	}
	if lastBucket != count {
		t.Errorf("+Inf bucket %v != count %v", lastBucket, count)
	}
	if count != 100 {
		t.Errorf("count = %v, want 100", count)
	}
}
