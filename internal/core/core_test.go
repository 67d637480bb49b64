package core

import (
	"math"
	"testing"

	"repro/internal/cpu"
	"repro/internal/linker"
	"repro/internal/objfile"
)

func program() (*objfile.Object, []*objfile.Object) {
	app := objfile.New("app")
	m := app.NewFunc("main")
	lib := objfile.New("lib")
	lib.AddData("buf", 512)
	for i := 0; i < 6; i++ {
		name := "f" + string(rune('0'+i))
		lib.NewFunc(name).ALU(4).Load("buf", uint64(i*8), 8).Ret()
		m.Call(name)
	}
	m.Halt()
	return app, []*objfile.Object{lib}
}

func newSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	app, libs := program()
	s, err := NewSystem(app, libs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPresetLabelsAndModes(t *testing.T) {
	tests := []struct {
		cfg      Config
		label    string
		mode     linker.BindingMode
		enhanced bool
	}{
		{Base(1), "base", linker.BindLazy, false},
		{Enhanced(1), "enhanced", linker.BindLazy, true},
		{Eager(1), "eager", linker.BindNow, false},
		{Static(1), "static", linker.BindStatic, false},
		{Patched(1), "patched", linker.BindPatched, false},
	}
	for _, tt := range tests {
		if tt.cfg.Label != tt.label {
			t.Errorf("label = %q, want %q", tt.cfg.Label, tt.label)
		}
		if tt.cfg.Linking.Mode != tt.mode {
			t.Errorf("%s: mode = %v, want %v", tt.label, tt.cfg.Linking.Mode, tt.mode)
		}
		if (tt.cfg.Hardware.ABTB != nil) != tt.enhanced {
			t.Errorf("%s: ABTB presence = %v", tt.label, tt.cfg.Hardware.ABTB != nil)
		}
	}
}

func TestMicros(t *testing.T) {
	if got := Micros(3000); got != 1.0 {
		t.Errorf("Micros(3000) = %v, want 1 at 3GHz", got)
	}
	if got := Micros(0); got != 0 {
		t.Errorf("Micros(0) = %v", got)
	}
}

func TestWarmupClearsCountersKeepsState(t *testing.T) {
	s := newSystem(t, Enhanced(3))
	if err := s.Warmup("main", 5); err != nil {
		t.Fatal(err)
	}
	if s.Counters().Instructions != 0 {
		t.Error("warmup left counters dirty")
	}
	// Steady state immediately: every library call skips.
	res, err := s.RunOnce("main")
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions == 0 {
		t.Fatal("no instructions")
	}
	c := s.Counters()
	if c.TrampSkips != 6 {
		t.Errorf("TrampSkips = %d, want 6 after warm ABTB", c.TrampSkips)
	}
	if c.Resolutions != 0 {
		t.Errorf("Resolutions = %d after warmup", c.Resolutions)
	}
}

func TestMeasureRequests(t *testing.T) {
	s := newSystem(t, Base(3))
	if err := s.Warmup("main", 3); err != nil {
		t.Fatal(err)
	}
	sample, err := s.MeasureRequests("main", 20)
	if err != nil {
		t.Fatal(err)
	}
	if sample.N() != 20 {
		t.Fatalf("N = %d", sample.N())
	}
	if sample.Mean() <= 0 {
		t.Error("non-positive latency")
	}
	// The recorder covers the warmup and the measured requests.
	if got := s.LifetimeRecorder().Total(); got != 6*(3+20) {
		t.Errorf("recorder total = %d, want %d", got, 6*(3+20))
	}
}

func TestEnhancedFasterThanBase(t *testing.T) {
	base := newSystem(t, Base(3))
	enh := newSystem(t, Enhanced(3))
	for _, s := range []*System{base, enh} {
		if err := s.Warmup("main", 5); err != nil {
			t.Fatal(err)
		}
	}
	bs, err := base.MeasureRequests("main", 50)
	if err != nil {
		t.Fatal(err)
	}
	es, err := enh.MeasureRequests("main", 50)
	if err != nil {
		t.Fatal(err)
	}
	if es.Mean() >= bs.Mean() {
		t.Errorf("enhanced mean %.3fus >= base %.3fus", es.Mean(), bs.Mean())
	}
}

func TestPKIDerivation(t *testing.T) {
	c := cpu.Counters{
		Instructions: 100000,
		TrampInstrs:  1223,
		L1IMisses:    500,
		Mispredicts:  250,
	}
	pki := PKIOf(c)
	if math.Abs(pki.TrampInstrs-12.23) > 1e-9 {
		t.Errorf("TrampInstrs PKI = %v", pki.TrampInstrs)
	}
	if math.Abs(pki.L1IMisses-5) > 1e-9 {
		t.Errorf("L1IMisses PKI = %v", pki.L1IMisses)
	}
	if math.Abs(pki.Mispredicts-2.5) > 1e-9 {
		t.Errorf("Mispredicts PKI = %v", pki.Mispredicts)
	}
	if got := PKIOf(cpu.Counters{}); got != (PKI{}) {
		t.Errorf("zero counters PKI = %+v", got)
	}
}

func TestNewSystemLinkError(t *testing.T) {
	app := objfile.New("app")
	app.NewFunc("main").Call("missing").Halt()
	if _, err := NewSystem(app, nil, Base(1)); err == nil {
		t.Error("link error not propagated")
	}
}

func TestPatchedSystemRuns(t *testing.T) {
	s := newSystem(t, Patched(3))
	if err := s.Warmup("main", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunOnce("main"); err != nil {
		t.Fatal(err)
	}
	if s.Counters().TrampInstrs != 0 {
		t.Error("patched system executed trampolines")
	}
	if s.Image().Patch().CallSites == 0 {
		t.Error("no patch stats recorded")
	}
}

func TestARMPresets(t *testing.T) {
	app, libs := program()
	for _, tt := range []struct {
		cfg      Config
		enhanced bool
	}{
		{BaseARM(3), false},
		{EnhancedARM(3), true},
	} {
		sys, err := NewSystem(app, libs, tt.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Warmup("main", 4); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.RunOnce("main"); err != nil {
			t.Fatal(err)
		}
		c := sys.Counters()
		if tt.enhanced {
			if c.TrampSkips != 6 {
				t.Errorf("%s: skips = %d, want 6", tt.cfg.Label, c.TrampSkips)
			}
			if c.TrampInstrs != 0 {
				t.Errorf("%s: trampoline instrs = %d, want 0", tt.cfg.Label, c.TrampInstrs)
			}
		} else {
			// ARM trampolines cost three instructions per call.
			if c.TrampInstrs != 18 {
				t.Errorf("%s: trampoline instrs = %d, want 18", tt.cfg.Label, c.TrampInstrs)
			}
		}
	}
}

func TestSystemAccessors(t *testing.T) {
	s := newSystem(t, Enhanced(3))
	if s.Config().Label != "enhanced" {
		t.Errorf("Config label = %q", s.Config().Label)
	}
	if s.CPU() == nil || !s.CPU().Enhanced() {
		t.Error("CPU accessor broken")
	}
	if s.LifetimeRecorder() == nil {
		t.Error("no lifetime recorder")
	}
	if err := s.Warmup("main", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunOnce("main"); err != nil {
		t.Fatal(err)
	}
	// The lifetime recorder spans warmup + measurement: ResetStats
	// clears the counters, not the recorder.
	if got, calls := s.LifetimeRecorder().Total(), s.Counters().TrampCalls; got <= calls {
		t.Errorf("lifetime recorder total %d <= measured window's %d calls", got, calls)
	}
	pki := s.PKI()
	if pki.TrampInstrs < 0 {
		t.Error("bad PKI")
	}
	// Error paths.
	if err := s.Warmup("missing", 1); err == nil {
		t.Error("warmup of unknown symbol succeeded")
	}
	if _, err := s.MeasureRequests("missing", 1); err == nil {
		t.Error("measure of unknown symbol succeeded")
	}
}
