package faultinject

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestDisabledIsNoop(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	Disable("never.armed") // ensure clean even under make-faults env
	if err := Fire("never.armed"); err != nil {
		t.Fatalf("Fire on unarmed point = %v, want nil", err)
	}
	if Hits("never.armed") != 0 {
		t.Error("unarmed point recorded hits")
	}
}

func TestErrorModeAndCounters(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	Enable("p.err", PointConfig{Mode: Error, Prob: 1})
	err := Fire("p.err")
	var inj *InjectedError
	if !errors.As(err, &inj) || inj.Point != "p.err" {
		t.Fatalf("Fire = %v, want *InjectedError{p.err}", err)
	}
	if Hits("p.err") != 1 || Injections("p.err") != 1 {
		t.Errorf("hits=%d injections=%d, want 1/1", Hits("p.err"), Injections("p.err"))
	}
}

func TestCountCapsInjections(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	Enable("p.capped", PointConfig{Mode: Error, Prob: 1, Count: 2})
	var failed int
	for i := 0; i < 5; i++ {
		if Fire("p.capped") != nil {
			failed++
		}
	}
	if failed != 2 {
		t.Errorf("injected %d times, want 2 (Count cap)", failed)
	}
	if Hits("p.capped") != 5 || Injections("p.capped") != 2 {
		t.Errorf("hits=%d injections=%d, want 5/2", Hits("p.capped"), Injections("p.capped"))
	}
}

func TestSeededProbabilityIsDeterministic(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	schedule := func(seed uint64) []bool {
		Seed(seed)
		Enable("p.prob", PointConfig{Mode: Error, Prob: 0.3})
		out := make([]bool, 40)
		for i := range out {
			out[i] = Fire("p.prob") != nil
		}
		return out
	}
	a, b := schedule(7), schedule(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at Fire %d", i)
		}
	}
	c := schedule(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced an identical 40-shot schedule")
	}
	// A 0.3 probability should inject some but not all of 40 shots.
	n := 0
	for _, hit := range a {
		if hit {
			n++
		}
	}
	if n == 0 || n == 40 {
		t.Errorf("prob 0.3 injected %d/40", n)
	}
}

func TestPanicMode(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	Enable("p.panic", PointConfig{Mode: Panic, Prob: 1})
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("no panic injected")
		}
		if s, ok := v.(string); !ok || !strings.Contains(s, "p.panic") {
			t.Errorf("panic value = %v, want message naming the point", v)
		}
	}()
	_ = Fire("p.panic")
}

func TestDelayMode(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	Enable("p.delay", PointConfig{Mode: Delay, Prob: 1, Delay: 30 * time.Millisecond})
	start := time.Now()
	if err := Fire("p.delay"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("delayed %v, want >= 30ms", d)
	}
	// A cancelled context cuts the delay short.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := FireCtx(ctx, "p.delay"); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled delay = %v, want context.Canceled", err)
	}
}

func TestHangModeUnblocksOnContextAndReset(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	Enable("p.hang", PointConfig{Mode: Hang, Prob: 1})

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := FireCtx(ctx, "p.hang"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hang under deadline = %v, want DeadlineExceeded", err)
	}

	// Reset releases a hang without a context deadline.
	done := make(chan error, 1)
	go func() { done <- Fire("p.hang") }()
	time.Sleep(10 * time.Millisecond)
	Reset()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("hang released by Reset = %v, want nil", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Reset did not release the hang")
	}
}

func TestParseSpec(t *testing.T) {
	cfgs, err := ParseSpec("runner.execute=error:0.02, dlsimd.submit=delay:0.05:2ms")
	if err != nil {
		t.Fatal(err)
	}
	if c := cfgs["runner.execute"]; c.Mode != Error || c.Prob != 0.02 {
		t.Errorf("runner.execute = %+v", c)
	}
	if c := cfgs["dlsimd.submit"]; c.Mode != Delay || c.Prob != 0.05 || c.Delay != 2*time.Millisecond {
		t.Errorf("dlsimd.submit = %+v", c)
	}
	for _, bad := range []string{
		"noequals", "p=", "p=warp:0.5", "p=error:1.5", "p=error:x", "p=delay:0.5:zzz",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) = nil error", bad)
		}
	}
}

// BenchmarkFireDisabled measures the compiled-in-but-disabled hot-path
// cost of an injection point.
//
//	go test -run '^$' -bench FireDisabled ./internal/faultinject/
func BenchmarkFireDisabled(b *testing.B) {
	Reset()
	b.Cleanup(Reset)
	Disable("bench.point")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Fire("bench.point"); err != nil {
			b.Fatal(err)
		}
	}
}
