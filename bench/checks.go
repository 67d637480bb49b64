package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/cpu"
	"repro/internal/runner"
)

// The correctness gate.  A run fails when any of these checks fails:
// the golden check in every set-up, and in the timed phase the pair
// invariant (cold-exact), byte-identical re-reads (hot-reads) and the
// sampled block (sampled-batch).

// goldenRow is one row of golden_counters.json.
type goldenRow struct {
	Workload string       `json:"workload"`
	Config   string       `json:"config"`
	Counters cpu.Counters `json:"counters"`
}

// goldenPath is the golden file, relative to the repository root.  The
// benchmark only reads it.
var goldenPath = filepath.Join("internal", "experiments", "testdata", "golden_counters.json")

func loadGolden(root string) ([]goldenRow, error) {
	b, err := os.ReadFile(filepath.Join(root, goldenPath))
	if err != nil {
		return nil, err
	}
	var rows []goldenRow
	if err := json.Unmarshal(b, &rows); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	return rows, nil
}

// goldenSpec is the job that reproduces a golden row.
func goldenSpec(g goldenRow) runner.JobSpec {
	return runner.JobSpec{Workload: g.Workload, Config: runner.ConfigKind(g.Config), Seed: goldenSeed, Scale: goldenScale}
}

// checkGolden compares a result's exact wire fields with its golden row.
func checkGolden(g goldenRow, r *resultView) error {
	c := g.Counters
	want := [6]uint64{c.Instructions, c.Cycles, c.TrampInstrs, c.TrampCalls, c.TrampSkips, c.Resolutions}
	got := [6]uint64{r.Instructions, r.Cycles, r.TrampInstrs, r.TrampCalls, r.TrampSkips, r.Resolutions}
	if got != want {
		return fmt.Errorf("golden %s/%s: got [instructions cycles tramp_instrs tramp_calls tramp_skips resolutions] = %v, want %v",
			g.Workload, g.Config, got, want)
	}
	return nil
}

// checkPair checks the architectural-equivalence invariant on one
// Base/Enhanced pair of the same workload and seed: the ABTB skips
// trampolines and nothing else, so Enhanced retires exactly the skipped
// trampoline jumps fewer instructions, sees the same calls, and Base
// skips none.
func checkPair(base, enh *resultView) error {
	switch {
	case base.TrampSkips != 0:
		return fmt.Errorf("pair: base skipped %d trampolines", base.TrampSkips)
	case base.TrampCalls != enh.TrampCalls:
		return fmt.Errorf("pair: tramp_calls base %d != enhanced %d", base.TrampCalls, enh.TrampCalls)
	case base.Instructions < enh.Instructions || base.Instructions-enh.Instructions != enh.TrampSkips:
		return fmt.Errorf("pair: instructions base %d - enhanced %d != enhanced tramp_skips %d",
			base.Instructions, enh.Instructions, enh.TrampSkips)
	}
	return nil
}

// checkSampled checks that a sampled-batch job carries its interval
// estimates: the requested window count and a finite half-width on
// every metric.
func checkSampled(jv *jobView) error {
	s := jv.Result.Sampled
	if s == nil {
		return fmt.Errorf("job %s: no sampled block", jv.ID)
	}
	if s.Windows != sampleWindows || len(s.Metrics) == 0 {
		return fmt.Errorf("job %s: sampled block has %d windows and %d metrics, want %d windows", jv.ID, s.Windows, len(s.Metrics), sampleWindows)
	}
	for name, m := range s.Metrics {
		if math.IsNaN(m.CI95) || math.IsInf(m.CI95, 0) || m.CI95 < 0 {
			return fmt.Errorf("job %s: sampled %s has ci95 %v", jv.ID, name, m.CI95)
		}
	}
	return nil
}

// withoutHit returns a GET /v1/jobs/{id} answer with its cache_hit
// field set to false: two answers for the same job must then agree
// byte for byte.
func withoutHit(body []byte) []byte {
	return bytes.Replace(body, []byte(`"cache_hit": true`), []byte(`"cache_hit": false`), 1)
}

// timelineTotals sums a GET /v1/jobs/{id}/timeline answer's points.
type timelineTotals struct {
	Instructions, Cycles, ABTBFlushes uint64
}

func sumTimeline(body []byte) (timelineTotals, error) {
	var tl struct {
		Series struct {
			Points []struct {
				Instructions uint64 `json:"instructions"`
				Cycles       uint64 `json:"cycles"`
				ABTBFlushes  uint64 `json:"abtb_flushes"`
			} `json:"points"`
		} `json:"series"`
	}
	var t timelineTotals
	if err := json.Unmarshal(body, &tl); err != nil {
		return t, err
	}
	for _, p := range tl.Series.Points {
		t.Instructions += p.Instructions
		t.Cycles += p.Cycles
		t.ABTBFlushes += p.ABTBFlushes
	}
	return t, nil
}
