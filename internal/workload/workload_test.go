package workload

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/objfile"
	"repro/internal/stats"
)

// generators under test, smallest first for cheap structural checks.
var generators = []struct {
	name string
	gen  func(uint64) *Workload
}{
	{"memcached", Memcached},
	{"apache", Apache},
	{"mysql", MySQL},
	{"firefox", Firefox},
}

func TestGeneratorsProduceValidWorkloads(t *testing.T) {
	for _, g := range generators {
		t.Run(g.name, func(t *testing.T) {
			w := g.gen(1)
			if w.Name != g.name {
				t.Errorf("Name = %q", w.Name)
			}
			if err := w.App.Validate(); err != nil {
				t.Errorf("app invalid: %v", err)
			}
			for _, lib := range w.Libs {
				if err := lib.Validate(); err != nil {
					t.Errorf("lib %s invalid: %v", lib.Name(), err)
				}
			}
			if len(w.Classes) < 2 {
				t.Errorf("only %d request classes", len(w.Classes))
			}
			for _, c := range w.Classes {
				if w.App.Func(c.Entry) == nil {
					t.Errorf("class %s entry %q not defined in app", c.Name, c.Entry)
				}
				if c.Weight <= 0 {
					t.Errorf("class %s weight %v", c.Name, c.Weight)
				}
			}
		})
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, g := range generators {
		a, b := g.gen(3), g.gen(3)
		if len(a.App.Funcs()) != len(b.App.Funcs()) {
			t.Errorf("%s: function counts differ across identical seeds", g.name)
		}
		// Same seed must produce identical instruction streams.
		fa, fb := a.App.Funcs()[0], b.App.Funcs()[0]
		if len(fa.Body) != len(fb.Body) {
			t.Fatalf("%s: first function body lengths differ", g.name)
		}
		for i := range fa.Body {
			if fa.Body[i] != fb.Body[i] {
				t.Fatalf("%s: body diverges at %d", g.name, i)
			}
		}
	}
}

func TestWorkloadClassLookup(t *testing.T) {
	w := Memcached(1)
	c, err := w.Class("GET")
	if err != nil || c.Entry != "handle_GET" {
		t.Errorf("Class(GET) = %+v, %v", c, err)
	}
	if _, err := w.Class("DELETE"); err == nil {
		t.Error("unknown class found")
	}
}

func TestDriverMixRespectsWeights(t *testing.T) {
	w := Memcached(1) // GET:SET = 9:1
	sys, err := w.NewSystem(core.Base(1))
	if err != nil {
		t.Fatal(err)
	}
	d := NewDriver(w, sys, 4)
	if err := d.Warmup(10); err != nil {
		t.Fatal(err)
	}
	samp, err := d.Run(300)
	if err != nil {
		t.Fatal(err)
	}
	gets, sets := samp["GET"].N(), samp["SET"].N()
	if gets+sets != 300 {
		t.Fatalf("total = %d", gets+sets)
	}
	ratio := float64(gets) / float64(sets)
	if ratio < 5 || ratio > 16 {
		t.Errorf("GET:SET ratio = %.1f, want ~9", ratio)
	}
	if d.System() != sys || d.Workload() != w {
		t.Error("driver accessors broken")
	}
}

func TestDriverDeterministicInterleaving(t *testing.T) {
	w := Memcached(1)
	counts := func(seed uint64) (int, int) {
		sys, err := w.NewSystem(core.Base(1))
		if err != nil {
			t.Fatal(err)
		}
		d := NewDriver(w, sys, seed)
		if err := d.Warmup(5); err != nil {
			t.Fatal(err)
		}
		s, err := d.Run(100)
		if err != nil {
			t.Fatal(err)
		}
		return s["GET"].N(), s["SET"].N()
	}
	g1, s1 := counts(7)
	g2, s2 := counts(7)
	if g1 != g2 || s1 != s2 {
		t.Errorf("same driver seed produced different mixes: %d/%d vs %d/%d", g1, s1, g2, s2)
	}
}

func TestTierBurstSchedule(t *testing.T) {
	zipf := tier{maxBurst: 16, zipf: true}
	wantZipf := []int{16, 16, 16, 16, 8, 8, 8, 8, 4, 4, 4, 4, 2, 2, 2, 2, 1, 1}
	for r, want := range wantZipf {
		if got := zipf.burstAt(r); got != want {
			t.Errorf("zipf burstAt(%d) = %d, want %d", r, got, want)
		}
	}
	uniform := tier{maxBurst: 4}
	for r := 0; r < 30; r++ {
		if got := uniform.burstAt(r); got != 4 {
			t.Errorf("uniform burstAt(%d) = %d, want 4", r, got)
		}
	}
	none := tier{}
	if got := none.burstAt(0); got != 1 {
		t.Errorf("zero-burst tier burstAt = %d, want 1", got)
	}
}

func TestEmitTieredCallsStructure(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	o := objfile.New("x")
	f := o.NewFunc("h")
	emitTieredCalls(f, rng, []tier{
		{names: []string{"a", "b"}, pct: 100},         // plain calls
		{names: []string{"c"}, pct: 100, maxBurst: 4}, // burst loop
		{names: []string{"d"}, pct: 40},               // gated
		{names: []string{"e"}, pct: 40, maxBurst: 3},  // gated burst
		{names: []string{"f1", "f2", "f3"}, pct: 2},   // nested cold gates
	}, nil)
	f.Halt()
	if err := o.Validate(); err != nil {
		t.Fatalf("emitted structure invalid: %v", err)
	}
	var calls, conds, loops int
	for _, in := range f.Body {
		switch in.Op {
		case isa.Call:
			calls++
		case isa.JmpCond:
			if in.Rel < 0 {
				loops++
			} else {
				conds++
			}
		}
	}
	if calls != 8 {
		t.Errorf("call sites = %d, want 8", calls)
	}
	if loops != 2 { // one per burst
		t.Errorf("burst loops = %d, want 2", loops)
	}
	if conds < 4 { // gates for d, e, and the cold block
		t.Errorf("gates = %d, want >= 4", conds)
	}
}

func TestEmitBodyRespectsRegion(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	o := objfile.New("x")
	o.AddData("r", 1024)
	f := o.NewFunc("g")
	emitBody(f, rng, bodySpec{region: "r", regionLen: 1024, alu: 30, loads: 8,
		span: 4, stores: 3, condEvery: 5, condBias: 80})
	f.Ret()
	if err := o.Validate(); err != nil {
		t.Fatalf("emitBody produced invalid code: %v", err)
	}
	// Span larger than the region is clamped rather than invalid.
	f2 := o.NewFunc("g2")
	emitBody(f2, rng, bodySpec{region: "r", regionLen: 1024, alu: 4, loads: 2,
		span: 100000, stores: 1})
	f2.Ret()
	if err := o.Validate(); err != nil {
		t.Fatalf("oversized span not clamped: %v", err)
	}
}

func TestEmitBodyWithLoop(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	o := objfile.New("x")
	o.AddData("r", 4096)
	f := o.NewFunc("g")
	emitBody(f, rng, bodySpec{region: "r", regionLen: 4096, alu: 12, loads: 2,
		span: 2, loop: true, loopIters: 70})
	f.Ret()
	if err := o.Validate(); err != nil {
		t.Fatalf("looped body invalid: %v", err)
	}
	found := false
	for _, in := range f.Body {
		if in.Op == isa.JmpCond && in.Rel < 0 {
			found = true
		}
	}
	if !found {
		t.Error("no backward branch emitted for loop")
	}
}

func TestEmitKernelStructure(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	o := objfile.New("x")
	o.AddData("r", 1<<20)
	f := o.NewFunc("k")
	emitKernel(f, rng, "r", 1<<20, 20, 64, 95)
	f.Ret()
	if err := o.Validate(); err != nil {
		t.Fatalf("kernel invalid: %v", err)
	}
	last := f.Body[len(f.Body)-2] // before Ret
	if last.Op != isa.JmpCond || last.Rel >= 0 {
		t.Errorf("kernel does not end in a backward branch: %+v", last)
	}
}

func TestGenLibShape(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	lib, names := genLib(rng, libParams{
		name: "libx", nFuncs: 10, dataBytes: 8192, bodyALU: [2]int{4, 10},
		bodyLoads: [2]int{1, 3}, loadSpan: 4, stores: 1, condEvery: 5, condBias: 80,
		loopPct: 50, loopIters: 60, crossCalls: 3, crossPct: 50, ifuncs: 2,
	}, []string{"ext_target"})
	if err := lib.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(names) != 12 { // 10 functions + 2 ifuncs
		t.Fatalf("names = %d, want 12", len(names))
	}
	if len(lib.IFuncs()) != 2 {
		t.Errorf("ifuncs = %d", len(lib.IFuncs()))
	}
	// Cross targets create externals.
	ext := lib.Externals()
	hasCross := false
	for _, e := range ext {
		if e == "ext_target" {
			hasCross = true
		}
	}
	if !hasCross {
		t.Errorf("no cross-library import emitted: %v", ext)
	}
}

func TestDriverWarmupPreBinds(t *testing.T) {
	w := Memcached(1)
	sys, err := w.NewSystem(core.Base(1))
	if err != nil {
		t.Fatal(err)
	}
	d := NewDriver(w, sys, 1)
	if err := d.Warmup(3); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(20); err != nil {
		t.Fatal(err)
	}
	if got := sys.Counters().Resolutions; got != 0 {
		t.Errorf("measurement window saw %d lazy resolutions; warmup must pre-bind", got)
	}
}

func TestDriverPerturbationProducesOutliers(t *testing.T) {
	w := Memcached(1)
	sys, err := w.NewSystem(core.Enhanced(1))
	if err != nil {
		t.Fatal(err)
	}
	d := NewDriver(w, sys, 4)
	d.PerturbEvery = 40
	if err := d.Warmup(30); err != nil {
		t.Fatal(err)
	}
	samp, err := d.Run(200)
	if err != nil {
		t.Fatal(err)
	}
	get := samp["GET"]
	// Perturbed requests run cold: the max should stand clearly above
	// the median, and trimming the top 2.5% should pull the max down
	// substantially more than it moves the median.
	p50, max := get.Percentile(50), get.Percentile(100)
	if max < p50*1.3 {
		t.Errorf("no visible outliers: p50=%.2f max=%.2f", p50, max)
	}
	trimmed := get.TrimOutliers(97.5)
	if trimmed.Percentile(100) >= max {
		t.Errorf("trimming did not remove the outlier tail")
	}
}

// TestDriverSeedPinned pins the driver-seed offset: runner.execute and
// every experiments harness construct drivers via DriverSeed, and a
// silent change here would alter every request stream and published
// number.  If you change the offset deliberately, regenerate the
// experiments golden file too.
func TestDriverSeedPinned(t *testing.T) {
	if DriverSeedOffset != 17 {
		t.Fatalf("DriverSeedOffset = %d, want 17 (pinned; changing it invalidates golden counters)", DriverSeedOffset)
	}
	if got := DriverSeed(0); got != 17 {
		t.Fatalf("DriverSeed(0) = %d, want 17", got)
	}
	if got := DriverSeed(7); got != 24 {
		t.Fatalf("DriverSeed(7) = %d, want 24", got)
	}
}

// sampledSystem links w under cfg and installs a compiled trace
// program up front, as the artifact pool does for its forks.
func sampledSystem(t *testing.T, w *Workload, cfg core.Config) *core.System {
	t.Helper()
	sys, err := w.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CPU().SetProgram(cpu.Compile(sys.Image(), cfg.Hardware.L1I.LineBytes)); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestRunSampledEstimatesExact drives the same workload/seed through an
// exact run and a sampled run and checks the sampled per-request
// instruction rate brackets the exact one: the mean must land within a
// few CI widths (the exact run includes the sampled run's skipped
// phases, so agreement is statistical, not exact).
func TestRunSampledEstimatesExact(t *testing.T) {
	w := Memcached(1)
	const total = 400

	exact := NewDriver(w, sampledSystem(t, w, core.Base(1)), 4)
	if err := exact.Warmup(10); err != nil {
		t.Fatal(err)
	}
	before := exact.System().Counters()
	if _, err := exact.Run(total); err != nil {
		t.Fatal(err)
	}
	d := exact.System().Counters().Sub(before)
	exactRate := float64(d.Instructions) / total

	sampled := NewDriver(w, sampledSystem(t, w, core.Base(1)), 4)
	if err := sampled.Warmup(10); err != nil {
		t.Fatal(err)
	}
	run, err := sampled.RunSampled(total, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Windows) != 8 {
		t.Fatalf("got %d windows, want 8", len(run.Windows))
	}
	if run.FastForwarded+run.Warmed+run.Measured != total/8 {
		t.Fatalf("window split %d+%d+%d != %d", run.FastForwarded, run.Warmed, run.Measured, total/8)
	}
	var rates []float64
	for i, win := range run.Windows {
		if win.Requests != run.Measured {
			t.Fatalf("window %d measured %d requests, want %d", i, win.Requests, run.Measured)
		}
		if win.Counters.Instructions == 0 {
			t.Fatalf("window %d measured no instructions", i)
		}
		rates = append(rates, float64(win.Counters.Instructions)/float64(win.Requests))
	}
	mean, ci := stats.MeanCI95(rates)
	if ci <= 0 {
		t.Fatalf("degenerate CI %v over %d windows", ci, len(rates))
	}
	// The request mix is stochastic per window, so allow a generous
	// multiple of the CI; catching gross estimator bugs is the point.
	if diff := math.Abs(mean - exactRate); diff > 4*ci && diff > 0.1*exactRate {
		t.Errorf("sampled instructions/request = %.1f ± %.1f, exact = %.1f (off by %.1f)",
			mean, ci, exactRate, diff)
	}

	// Latency samples pool only measured requests.
	n := 0
	for _, s := range run.Classes {
		n += s.N()
	}
	if want := 8 * run.Measured; n != want {
		t.Errorf("pooled %d latency samples, want %d", n, want)
	}
}

// TestRunSampledDeterministic pins the sampled path's replayability:
// identical drivers produce byte-identical window deltas.
func TestRunSampledDeterministic(t *testing.T) {
	w := Memcached(1)
	one := func() *SampledRun {
		d := NewDriver(w, sampledSystem(t, w, core.Base(1)), 9)
		run, err := d.RunSampled(200, 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	a, b := one(), one()
	if !reflect.DeepEqual(a.Windows, b.Windows) {
		t.Errorf("sampled windows diverge across identical runs:\n  %+v\n  %+v", a.Windows, b.Windows)
	}
}

// TestRunSampledValidation covers the parameter errors: bad window
// counts, negative warmup and warmup wider than a window.
func TestRunSampledValidation(t *testing.T) {
	w := Memcached(1)
	sys, err := w.NewSystem(core.Base(1))
	if err != nil {
		t.Fatal(err)
	}
	d := NewDriver(w, sys, 2)
	if _, err := d.RunSampled(100, 0, 2); err == nil {
		t.Error("windows=0 accepted")
	}
	if _, err := d.RunSampled(100, 4, -1); err == nil {
		t.Error("negative warmup accepted")
	}
	if _, err := d.RunSampled(40, 10, 5); err == nil {
		t.Error("warmup wider than window accepted")
	}
}
