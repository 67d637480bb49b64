package telemetry

import (
	"testing"
)

// The telemetry hot path must be cheap enough to leave armed in
// production: these micro-benches measure each instrument's cost.
//
//	go test -run '^$' -bench . ./internal/telemetry/

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterVecWith(b *testing.B) {
	r := NewRegistry()
	v := r.CounterVec("bench_total", "bench", "workload", "config")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.With("apache", "enhanced").Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_ms", "bench", ExponentialBuckets(0.5, 2, 20))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 1000))
	}
}

func BenchmarkSpanLifecycle(b *testing.B) {
	tr := NewTracer(16)
	trace := tr.Start("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := trace.Root().Child("phase")
		sp.End()
	}
}

// BenchmarkSpanDisabled measures the nil-tracer path instrumented
// code pays when tracing is off: nil checks only.
func BenchmarkSpanDisabled(b *testing.B) {
	var tr *Tracer
	trace := tr.Start("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := trace.Root().Child("phase")
		sp.SetAttr("k", "v")
		sp.End()
	}
}
