package runner

import (
	"context"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestJobTracePhases: a completed job's trace carries the full phase
// breakdown — queued, then an attempt with generate/link/warmup/
// measure children — addressable by the job's own ID.
func TestJobTracePhases(t *testing.T) {
	r := New(Options{Workers: 1})
	defer r.Close()
	j, _, err := r.Submit(fastSpec(301))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	tr, ok := r.Tracer().Get(j.ID)
	if !ok {
		t.Fatalf("no trace for job %s", j.ID)
	}
	phases := tr.Phases()
	if len(phases) != 2 || phases[0] != "queued" || phases[1] != "attempt" {
		t.Fatalf("phases = %v, want [queued attempt]", phases)
	}
	snap := tr.Snapshot()
	if snap.ID != j.ID {
		t.Errorf("trace id = %s, want job id %s", snap.ID, j.ID)
	}
	if snap.Root.InProgress {
		t.Error("completed job's trace still in progress")
	}
	if snap.Root.Attrs["workload"] != j.Spec.Workload {
		t.Errorf("root attrs = %v", snap.Root.Attrs)
	}
	var attempt *telemetry.SpanJSON
	for i := range snap.Root.Children {
		if snap.Root.Children[i].Name == "attempt" {
			attempt = &snap.Root.Children[i]
		}
	}
	if attempt == nil {
		t.Fatal("no attempt span")
	}
	want := []string{"generate", "link", "warmup", "measure"}
	if len(attempt.Children) != len(want) {
		t.Fatalf("attempt children = %+v, want %v", attempt.Children, want)
	}
	for i, name := range want {
		if attempt.Children[i].Name != name {
			t.Errorf("attempt child %d = %s, want %s", i, attempt.Children[i].Name, name)
		}
	}
}

// TestMetricsEndToEnd: the registry the runner exposes carries the
// operational counters and the per-workload simulation counters, and
// Stats() reads the same instruments.
func TestMetricsEndToEnd(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := New(Options{Workers: 2, Metrics: reg})
	defer r.Close()
	if r.Metrics() != reg {
		t.Fatal("runner did not adopt the provided registry")
	}
	res, err := r.Run(context.Background(), fastSpec(303))
	if err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"dlsim_runner_jobs_completed_total 1",
		"dlsim_runner_cache_misses_total 1",
		`dlsim_sim_instructions_total{workload="memcached",config="base"}`,
		`dlsim_sim_tramp_skips_total{workload="memcached",config="base"}`,
		"dlsim_runner_job_wall_ms_count 1",
		"dlsim_runner_queue_wait_ms_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if res.Counters.Instructions == 0 {
		t.Fatal("no instructions simulated")
	}
	if st := r.Stats(); st.Completed != 1 || st.JobMeanMS <= 0 {
		t.Errorf("stats = %+v, want completed=1 with latency", st)
	}
}

// TestTracingDisabled: TraceCapacity < 0 turns tracing off without
// affecting execution.
func TestTracingDisabled(t *testing.T) {
	r := New(Options{Workers: 1, TraceCapacity: -1})
	defer r.Close()
	if r.Tracer() != nil {
		t.Fatal("tracer not disabled")
	}
	if _, err := r.Run(context.Background(), fastSpec(304)); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Completed != 1 {
		t.Errorf("completed = %d, want 1", st.Completed)
	}
}
