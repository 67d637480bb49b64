package runner

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzJobSpec feeds arbitrary bytes through the decoding dlsimd's
// server.go applies to job and sweep bodies (json.Decoder with
// DisallowUnknownFields).  Decoding, Normalize and Expand must never
// panic, and every spec they accept must come out canonical: a fixed
// point of Normalize with an unchanged Key, scale folded into a budget
// of at least MinMeasure and never below the ⌊Measure × Scale⌋ the
// caller asked for, and a measured request left in every sample
// window.
//
//	go test -run '^$' -fuzz '^FuzzJobSpec$' -fuzztime 30s ./internal/runner/
func FuzzJobSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec JobSpec
		if decodeStrict(body, &spec) == nil {
			if n, err := spec.Normalize(); err == nil {
				checkCanonical(t, n)
				checkBudget(t, spec, n)
			}
		}
		var sweep SweepSpec
		if decodeStrict(body, &sweep) == nil {
			specs, err := sweep.Expand()
			if err != nil {
				return
			}
			asked := JobSpec{Workload: sweep.Workload, Scale: sweep.Scale, Measure: sweep.Measure}
			for _, n := range specs {
				checkCanonical(t, n)
				checkBudget(t, asked, n)
			}
		}
	})
}

// decodeStrict decodes one JSON value as the dlsimd submit handlers
// do.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// checkCanonical fails unless n, an accepted spec's normal form, is a
// fixed point of Normalize with an unchanged Key, has its scale folded
// in, and leaves every sample window a measured request.
func checkCanonical(t *testing.T, n JobSpec) {
	t.Helper()
	again, err := n.Normalize()
	if err != nil {
		t.Fatalf("%+v: normal form rejected: %v", n, err)
	}
	if again != n {
		t.Fatalf("Normalize is not idempotent:\n  once  %+v\n  twice %+v", n, again)
	}
	k1, err1 := n.Key()
	k2, err2 := again.Key()
	if err1 != nil || err2 != nil || k1 != k2 {
		t.Fatalf("%+v: key %q (%v) re-normalises to %q (%v)", n, k1, err1, k2, err2)
	}
	if n.Scale != 0 || n.Measure < MinMeasure {
		t.Fatalf("%+v: want scale 0 and measure >= %d", n, MinMeasure)
	}
	if n.SampleWindows > 0 && n.Measure/n.SampleWindows <= n.SampleWarmup {
		t.Fatalf("%+v: a sample window has no measured request", n)
	}
}

// checkBudget fails if n measures fewer requests than spec asked for:
// ⌊Measure × Scale⌋ with the workload's default budget and a scale of
// 1 standing in for unset fields.
func checkBudget(t *testing.T, spec, n JobSpec) {
	t.Helper()
	ws, _ := WorkloadByName(spec.Workload)
	measure, scale := spec.Measure, spec.Scale
	if measure == 0 {
		measure = ws.Measure
	}
	if scale <= 0 {
		scale = 1
	}
	if want := math.Floor(float64(measure) * scale); float64(n.Measure) < want {
		t.Fatalf("%+v normalised to measure=%d, below the %.0f requested", spec, n.Measure, want)
	}
}
