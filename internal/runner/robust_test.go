package runner

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/leakcheck"
)

// armed arms one injection point for the duration of the test and
// restores the framework afterwards.
func armed(t *testing.T, point string, cfg faultinject.PointConfig) {
	t.Helper()
	faultinject.Enable(point, cfg)
	t.Cleanup(faultinject.Reset)
}

// TestPanicIsolation proves the acceptance criterion: an injected
// panic in a worker fails only that job — the process survives, the
// stack is recorded, and stats count the failure — while a subsequent
// job on the same pool succeeds.
func TestPanicIsolation(t *testing.T) {
	leakcheck.Check(t)
	armed(t, "runner.execute", faultinject.PointConfig{Mode: faultinject.Panic, Prob: 1, Count: 1})

	r := New(Options{Workers: 2})
	defer r.Close()

	_, err := r.Run(context.Background(), fastSpec(41))
	if err == nil {
		t.Fatal("want panic-failure, got success")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error = %v (%T), want *PanicError", err, err)
	}
	if pe.Stack == "" || pe.Value == nil {
		t.Errorf("panic not captured: value=%v stack-len=%d", pe.Value, len(pe.Stack))
	}
	st := r.Stats()
	if st.Failed != 1 || st.Panics != 1 {
		t.Errorf("stats failed=%d panics=%d, want 1/1", st.Failed, st.Panics)
	}

	// The pool is still alive: the injection count is exhausted, so a
	// fresh job runs clean.
	res, err := r.Run(context.Background(), fastSpec(42))
	if err != nil {
		t.Fatalf("pool dead after panic: %v", err)
	}
	if res.Counters.Instructions == 0 {
		t.Error("post-panic job returned empty result")
	}
	if st := r.Stats(); st.Completed != 1 {
		t.Errorf("completed = %d, want 1", st.Completed)
	}
}

// TestFailedJobRunsOnce: a job is a pure function of its spec, so its
// one execution is final.  One injected error in a sweep fails exactly
// the job it hits, with no requeue and no backoff; resubmitting that
// spec answers the cached failure without running anything; and the
// sweep's other jobs match a clean runner's bit for bit.
func TestFailedJobRunsOnce(t *testing.T) {
	leakcheck.Check(t)
	armed(t, "runner.execute", faultinject.PointConfig{Mode: faultinject.Error, Prob: 1, Count: 1})
	ctx := context.Background()

	r := New(Options{Workers: 2})
	defer r.Close()
	b, _, err := r.SubmitBatch(fastSweep())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	st := b.Status()
	if st.Done != 3 || st.Failed != 1 {
		t.Fatalf("sweep done=%d failed=%d, want 3/1: the job the error hits fails", st.Done, st.Failed)
	}
	var failed *Job
	for i, row := range st.Jobs {
		if row.State != StateFailed {
			continue
		}
		failed = b.Jobs()[i]
		if !strings.Contains(row.Error, "injected error at runner.execute") {
			t.Errorf("failed row's error = %q, want the injected error", row.Error)
		}
	}
	var inj *faultinject.InjectedError
	if err := failed.Err(); !errors.As(err, &inj) {
		t.Errorf("Job.Err() = %v, want the injected error", err)
	}
	if _, ok := failed.Result(); ok {
		t.Error("failed job reports a Result")
	}
	// Every job fired the point exactly once: one execution each.
	if hits, n := faultinject.Hits("runner.execute"), faultinject.Injections("runner.execute"); hits != 4 || n != 1 {
		t.Errorf("runner.execute hits=%d injections=%d, want 4/1", hits, n)
	}
	tr, ok := r.Tracer().Get(failed.ID)
	if !ok {
		t.Fatalf("no trace for failed job %s", failed.ID)
	}
	if got := strings.Join(tr.Phases(), " "); got != "queued attempt" {
		t.Errorf("failed job's phases = %q, want one queued and one attempt", got)
	}

	again, reused, err := r.Submit(failed.Spec)
	if err != nil || !reused || again != failed {
		t.Fatalf("resubmit = job %p reused=%v err=%v, want the cached failed job %p", again, reused, err, failed)
	}
	if _, err := again.Wait(ctx); !errors.As(err, &inj) {
		t.Errorf("resubmitted job's error = %v, want the injected error", err)
	}
	if hits := faultinject.Hits("runner.execute"); hits != 4 {
		t.Errorf("runner.execute hits=%d after the resubmit, want still 4", hits)
	}
	if s := r.Stats(); s.CacheMisses != 4 || s.CacheHits != 1 || s.Completed != 3 || s.Failed != 1 {
		t.Errorf("stats misses=%d hits=%d completed=%d failed=%d, want 4/1/3/1",
			s.CacheMisses, s.CacheHits, s.Completed, s.Failed)
	}

	// The injection is spent, so a fresh runner runs the specs clean.
	clean := New(Options{Workers: 2})
	defer clean.Close()
	for _, j := range b.Jobs() {
		if j == failed {
			continue
		}
		got, _ := j.Result()
		want, err := clean.Run(ctx, j.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if got.Counters != want.Counters {
			t.Errorf("%s seed %d: counters %+v, clean runner %+v", j.Spec.Config, j.Spec.Seed, got.Counters, want.Counters)
		}
		if len(got.Samples) != len(want.Samples) {
			t.Errorf("%s seed %d: %d classes, clean runner %d", j.Spec.Config, j.Spec.Seed, len(got.Samples), len(want.Samples))
		}
		for class, ws := range want.Samples {
			if gs, ok := got.Samples[class]; !ok || !slices.Equal(gs.Values(), ws.Values()) {
				t.Errorf("%s seed %d: class %q samples differ from the clean runner's", j.Spec.Config, j.Spec.Seed, class)
			}
		}
	}
}

func TestJobTimeoutSentinel(t *testing.T) {
	leakcheck.Check(t)
	r := New(Options{Workers: 1, JobTimeout: time.Nanosecond})
	defer r.Close()
	_, err := r.Run(context.Background(), fastSpec(54))
	if !errors.Is(err, ErrJobTimeout) {
		t.Fatalf("error = %v, want errors.Is ErrJobTimeout", err)
	}
	if errors.Is(err, ErrRunnerClosed) {
		t.Error("timeout error also matches ErrRunnerClosed")
	}
}

// TestClosedSentinels: Submit after Close, a job cancelled mid-run by
// Close, and a job abandoned while queued all match ErrRunnerClosed.
func TestClosedSentinels(t *testing.T) {
	leakcheck.Check(t)
	armed(t, "runner.execute", faultinject.PointConfig{Mode: faultinject.Hang, Prob: 1})

	r := New(Options{Workers: 1})
	running, _, err := r.Submit(fastSpec(55))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning)
	queued, _, err := r.Submit(fastSpec(56))
	if err != nil {
		t.Fatal(err)
	}

	r.Close()
	if _, _, err := r.Submit(fastSpec(57)); !errors.Is(err, ErrRunnerClosed) {
		t.Errorf("Submit after Close = %v, want ErrRunnerClosed", err)
	}
	if _, err := running.Wait(context.Background()); !errors.Is(err, ErrRunnerClosed) {
		t.Errorf("mid-run job error = %v, want ErrRunnerClosed", err)
	}
	if _, err := queued.Wait(context.Background()); !errors.Is(err, ErrRunnerClosed) {
		t.Errorf("queued job error = %v, want ErrRunnerClosed", err)
	}
}

// waitState polls until the job reaches the state or the test times
// out.
func waitState(t *testing.T, j *Job, want JobState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for j.State() != want {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s, want %s", j.State(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCancelledWhileQueued: a caller abandoning its Wait while the
// job is still queued leaks nothing, and the job itself is untouched
// (it still belongs to the pool).
func TestCancelledWhileQueued(t *testing.T) {
	leakcheck.Check(t)
	armed(t, "runner.execute", faultinject.PointConfig{Mode: faultinject.Hang, Prob: 1, Count: 1})

	r := New(Options{Workers: 1})
	hog, _, err := r.Submit(fastSpec(61))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, hog, StateRunning)

	queued, _, err := r.Submit(fastSpec(62))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := queued.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait = %v, want DeadlineExceeded", err)
	}
	if queued.State() != StateQueued {
		t.Errorf("abandoned job state = %s, want still queued", queued.State())
	}

	// Release the hang: both jobs complete normally.
	faultinject.Reset()
	if _, err := hog.Wait(context.Background()); err != nil {
		t.Errorf("hog failed: %v", err)
	}
	if _, err := queued.Wait(context.Background()); err != nil {
		t.Errorf("queued job failed after release: %v", err)
	}
	r.Close()
}

// TestCancelledMidRun: abandoning the Wait of a running job does not
// cancel the job; Close afterwards reclaims the worker goroutine
// (asserted by the leak check).
func TestCancelledMidRun(t *testing.T) {
	leakcheck.Check(t)
	armed(t, "runner.execute", faultinject.PointConfig{Mode: faultinject.Hang, Prob: 1})

	r := New(Options{Workers: 1})
	j, _, err := r.Submit(fastSpec(63))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := j.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want Canceled", err)
	}
	if j.State() != StateRunning {
		t.Errorf("job state = %s, want still running (Wait must not cancel it)", j.State())
	}
	r.Close()
	if _, err := j.Wait(context.Background()); !errors.Is(err, ErrRunnerClosed) {
		t.Errorf("after Close, job error = %v, want ErrRunnerClosed", err)
	}
}

// TestQueueFullSheds: with MaxQueue reached, new specs are rejected
// with ErrQueueFull (counted in stats) while cache hits and dedup
// still serve.
func TestQueueFullSheds(t *testing.T) {
	leakcheck.Check(t)
	armed(t, "runner.execute", faultinject.PointConfig{Mode: faultinject.Hang, Prob: 1})

	r := New(Options{Workers: 1, MaxQueue: 1})
	hog, _, err := r.Submit(fastSpec(71))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, hog, StateRunning)
	if _, _, err := r.Submit(fastSpec(72)); err != nil {
		t.Fatalf("first queued submit rejected: %v", err)
	}
	_, _, err = r.Submit(fastSpec(73))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity submit = %v, want ErrQueueFull", err)
	}
	// Admission control does not break idempotent resubmission.
	if _, reused, err := r.Submit(fastSpec(71)); err != nil || !reused {
		t.Errorf("resubmit of in-flight spec = reused=%v err=%v, want coalesced", reused, err)
	}
	st := r.Stats()
	if st.Shed != 1 {
		t.Errorf("shed = %d, want 1", st.Shed)
	}
	r.Close()
}

// TestDrain: a drain with headroom finishes every job and reports
// nothing abandoned; submissions after the drain are rejected.
func TestDrain(t *testing.T) {
	leakcheck.Check(t)
	r := New(Options{Workers: 2})
	jobs := make([]*Job, 0, 3)
	for seed := uint64(81); seed < 84; seed++ {
		j, _, err := r.Submit(fastSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if n := r.Drain(ctx); n != 0 {
		t.Fatalf("Drain abandoned %d jobs, want 0", n)
	}
	for _, j := range jobs {
		if j.State() != StateDone {
			t.Errorf("job %s state = %s after drain, want done", j.ID, j.State())
		}
	}
	if _, _, err := r.Submit(fastSpec(85)); !errors.Is(err, ErrRunnerClosed) {
		t.Errorf("Submit after Drain = %v, want ErrRunnerClosed", err)
	}
	r.Close()
}

// TestDrainDeadline: a drain that cannot finish reports the abandoned
// jobs and leaves them to Close.
func TestDrainDeadline(t *testing.T) {
	leakcheck.Check(t)
	armed(t, "runner.execute", faultinject.PointConfig{Mode: faultinject.Hang, Prob: 1})

	r := New(Options{Workers: 1})
	j, _, err := r.Submit(fastSpec(91))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if n := r.Drain(ctx); n != 1 {
		t.Errorf("Drain = %d abandoned, want 1", n)
	}
	r.Close()
	if _, err := j.Wait(context.Background()); !errors.Is(err, ErrRunnerClosed) {
		t.Errorf("abandoned job error = %v, want ErrRunnerClosed", err)
	}
}

// TestDrainDeadlineCountsSnapshots: a drain cut short also counts the
// batch snapshots it could not wait for, so a caller about to close
// the store knows it loses them.
func TestDrainDeadlineCountsSnapshots(t *testing.T) {
	leakcheck.Check(t)
	armed(t, "runner.execute", faultinject.PointConfig{Mode: faultinject.Hang, Prob: 1})

	r := New(Options{Workers: 1, Store: openStore(t, t.TempDir())})
	b, _, err := r.SubmitBatch(SweepSpec{Workload: "memcached", Configs: []ConfigKind{Base}, Seeds: []uint64{1}, Warm: 5, Measure: 20})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, b.Jobs()[0], StateRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if n := r.Drain(ctx); n != 2 {
		t.Errorf("Drain = %d abandoned, want 2 (the job and its batch's snapshot)", n)
	}
	r.Close()
	if err := b.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}
