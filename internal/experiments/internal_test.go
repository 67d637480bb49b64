package experiments

import (
	"testing"

	"repro/internal/stats"
)

func TestValueAtFraction(t *testing.T) {
	cdf := []stats.CDFPoint{
		{Value: 10, Fraction: 0.25},
		{Value: 20, Fraction: 0.50},
		{Value: 30, Fraction: 0.75},
		{Value: 40, Fraction: 1.00},
	}
	tests := []struct {
		frac float64
		want float64
	}{
		{0.1, 10}, {0.25, 10}, {0.26, 20}, {0.5, 20}, {0.9, 40}, {1.0, 40},
	}
	for _, tt := range tests {
		if got := valueAtFraction(cdf, tt.frac); got != tt.want {
			t.Errorf("valueAtFraction(%.2f) = %v, want %v", tt.frac, got, tt.want)
		}
	}
	if got := valueAtFraction(nil, 0.5); got != 0 {
		t.Errorf("empty CDF = %v", got)
	}
	// Fraction beyond the table clamps to the last value.
	short := []stats.CDFPoint{{Value: 5, Fraction: 0.5}}
	if got := valueAtFraction(short, 0.99); got != 5 {
		t.Errorf("clamp = %v", got)
	}
}

func TestMerged(t *testing.T) {
	a, b := &stats.Sample{}, &stats.Sample{}
	a.AddAll([]float64{1, 2, 3})
	b.AddAll([]float64{10, 20})
	m := merged(map[string]*stats.Sample{"a": a, "b": b})
	if m.N() != 5 {
		t.Errorf("N = %d, want 5", m.N())
	}
	if m.Percentile(100) != 20 || m.Percentile(0) != 1 {
		t.Errorf("range = [%v, %v]", m.Percentile(0), m.Percentile(100))
	}
}

func TestSuiteMeasureClamp(t *testing.T) {
	if s := NewSuite(1, 0); s.Scale != 1 { // zero scale defaults to 1
		t.Errorf("Scale = %v", s.Scale)
	}
}

func TestWorkloadRegistry(t *testing.T) {
	if len(Workloads) != 4 {
		t.Fatalf("workloads = %d", len(Workloads))
	}
	names := map[string]bool{}
	for _, w := range Workloads {
		if w.Gen == nil || w.Warm <= 0 || w.Measure <= 0 {
			t.Errorf("%s: incomplete spec %+v", w.Name, w)
		}
		names[w.Name] = true
	}
	for _, want := range []string{"apache", "firefox", "memcached", "mysql"} {
		if !names[want] {
			t.Errorf("missing workload %s", want)
		}
	}
}

func TestFormatFigure5AlignsSizes(t *testing.T) {
	series := []Figure5Series{{
		Workload: "demo",
		Sizes:    Figure5Sizes,
		SkipPct:  make([]float64, len(Figure5Sizes)),
	}}
	out := FormatFigure5(series)
	if out == "" {
		t.Fatal("empty output")
	}
}
