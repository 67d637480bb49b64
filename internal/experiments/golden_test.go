package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/runner"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenSeed pins the workload generation, layout and request streams
// of the golden runs.  Changing it (or the golden scale) invalidates
// testdata/golden_counters.json; regenerate with -update.
const goldenSeed = 7

// goldenScale trades coverage for runtime: a quarter of each
// workload's default measured window still executes tens of millions
// of instructions across the matrix, enough to exercise every kernel
// path (trampolines, resolver, ABTB redirects and flushes, swept
// loads, conditional branches) while keeping the test CI-sized.
const goldenScale = 0.25

// goldenEntry is one workload×config cell: the full CPU counter
// snapshot over the measurement window.
type goldenEntry struct {
	Workload string       `json:"workload"`
	Config   string       `json:"config"`
	Counters cpu.Counters `json:"counters"`
}

// goldenSpecs lists the golden job of every workload under each of
// configs that can run it, workload-major.
func goldenSpecs(configs ...runner.ConfigKind) []runner.JobSpec {
	var specs []runner.JobSpec
	for _, w := range runner.WorkloadNames() {
		for _, cfg := range configs {
			if runs(w, cfg) {
				specs = append(specs, runner.JobSpec{
					Workload: w, Config: cfg, Seed: goldenSeed, Scale: goldenScale,
				})
			}
		}
	}
	return specs
}

// runs reports whether the service can run workload w under cfg.  The
// churn workloads unload libraries and rebind GOT entries at run time:
// a static image has no GOT, and plugin-server's unloads cannot
// tombstone a patched image's direct calls, so those jobs fail by
// design.
func runs(w string, cfg runner.ConfigKind) bool {
	switch cfg {
	case runner.Static:
		return w != "plugin-server" && w != "jit"
	case runner.Patched:
		return w != "plugin-server"
	}
	return true
}

// runGoldenMatrix executes specs under the given runner options and
// returns the counter snapshot rows.
func runGoldenMatrix(t *testing.T, opts runner.Options, specs []runner.JobSpec) []goldenEntry {
	t.Helper()
	pool := runner.New(opts)
	defer pool.Close()
	results, err := pool.RunAll(t.Context(), specs)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]goldenEntry, len(results))
	for i, res := range results {
		got[i] = goldenEntry{
			Workload: res.Spec.Workload,
			Config:   string(res.Spec.Config),
			Counters: res.Counters,
		}
	}
	return got
}

// TestGoldenCounters locks the simulation kernel to a pre-recorded
// counter snapshot: every workload × {base, enhanced} cell must
// reproduce testdata/golden_counters.json field for field.  The file
// was generated before the kernel's hot-path rework (dense per-page
// execution counters, memoized data pages, de-mapped trampoline
// accounting, set-associative fast paths), so a pass proves those
// optimisations are bit-identical, not just statistically close.  It
// is the independent oracle for the kernel's single-step semantics:
// the cpu package's identity tests compare block replay only against
// single steps of the same compiled Program.
//
// Regenerate deliberately with:
//
//	go test ./internal/experiments/ -run TestGoldenCounters -update
func TestGoldenCounters(t *testing.T) {
	checkGoldenFile(t, "golden_counters.json", goldenSpecs(runner.Base, runner.Enhanced))
}

// TestGoldenEveryConfig extends TestGoldenCounters to every other
// configuration the service runs: eager, static, patched, base-arm
// and enhanced-arm on each workload that can run them (27 cells,
// testdata/golden_configs.json).  These cells exercise paths the
// base/enhanced pair does not (direct calls, eager binding, ARM
// trampolines), so a change to any shared structure must keep them
// too.  It is a separate test so that `make race`, which runs
// TestGoldenCounters under the race detector, stays CI-sized.
//
// Regenerate deliberately with:
//
//	go test ./internal/experiments/ -run TestGoldenEveryConfig -update
func TestGoldenEveryConfig(t *testing.T) {
	checkGoldenFile(t, "golden_configs.json", goldenSpecs(
		runner.Eager, runner.Static, runner.Patched, runner.BaseARM, runner.EnhancedARM))
}

// checkGoldenFile runs specs and compares their counters with
// testdata/name field for field, or rewrites the file under -update.
func checkGoldenFile(t *testing.T, name string, specs []runner.JobSpec) {
	if testing.Short() {
		t.Skip("golden matrix is full simulations; skipped in -short")
	}
	path := filepath.Join("testdata", name)

	got := runGoldenMatrix(t, runner.Options{Workers: 2}, specs)

	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d entries)", path, len(got))
		return
	}

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	compareGolden(t, "compiled", got, want)
	if t.Failed() {
		t.Fatal(fmt.Sprintf("kernel output drifted from %s: the optimized hot path is no longer bit-identical", path))
	}
}

// compareGolden diffs one matrix run against the golden rows,
// reporting exactly which counters drifted, field by field.
func compareGolden(t *testing.T, label string, got, want []goldenEntry) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: golden file has %d entries, run produced %d (regenerate with -update?)", label, len(want), len(got))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Workload != w.Workload || g.Config != w.Config {
			t.Fatalf("%s: entry %d is %s/%s, golden has %s/%s", label, i, g.Workload, g.Config, w.Workload, w.Config)
		}
		if g.Counters == w.Counters {
			continue
		}
		gv := reflect.ValueOf(g.Counters)
		wv := reflect.ValueOf(w.Counters)
		for f := 0; f < gv.NumField(); f++ {
			if gv.Field(f).Uint() != wv.Field(f).Uint() {
				t.Errorf("%s: %s/%s: %s = %d, golden %d",
					label, g.Workload, g.Config, gv.Type().Field(f).Name,
					gv.Field(f).Uint(), wv.Field(f).Uint())
			}
		}
	}
}
