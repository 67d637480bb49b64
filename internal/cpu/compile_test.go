package cpu

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/linker"
	"repro/internal/objfile"
)

// newPair links the same random program twice (lazy GOT state is
// mutable, so each CPU needs its own image) and returns an interpreted
// CPU and a compiled CPU with otherwise identical configuration.
func newPair(t *testing.T, seed uint64, mode linker.BindingMode, enhanced bool) (interp, compiled *CPU) {
	t.Helper()
	app, libs := genRandomProgram(seed)
	opts := linker.Options{Mode: mode, Seed: seed, IFuncLevel: int(seed % 3)}
	cfg := DefaultConfig()
	if enhanced {
		cfg = EnhancedConfig()
	}
	cfg.Seed = seed
	imI, err := linker.Link(app, libs, opts)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	imC, err := linker.Link(app, libs, opts)
	if err != nil {
		t.Fatal(err)
	}
	interp = New(imI, cfg)
	compiled = New(imC, cfg)
	if err := compiled.SetProgram(Compile(imC, cfg.L1I.LineBytes)); err != nil {
		t.Fatal(err)
	}
	return interp, compiled
}

// comparePair asserts the two CPUs are in bit-identical measurement
// and architectural states.
func comparePair(t *testing.T, label string, interp, compiled *CPU) {
	t.Helper()
	if ci, cc := interp.Counters(), compiled.Counters(); ci != cc {
		t.Fatalf("%s: counters diverged\ninterpreted: %+v\ncompiled:    %+v", label, ci, cc)
	}
	if fi, fc := interp.TrampFreq(), compiled.TrampFreq(); !reflect.DeepEqual(fi, fc) {
		t.Fatalf("%s: trampoline frequencies diverged: %v vs %v", label, fi, fc)
	}
	for mi, m := range interp.Image().Modules() {
		mc := compiled.Image().Modules()[mi]
		for a := m.DataBase; a < m.DataEnd; a += 8 {
			if vi, vc := interp.Image().Memory().Read64(a), compiled.Image().Memory().Read64(a); vi != vc {
				t.Fatalf("%s: memory diverged at %#x in %s: %#x vs %#x", label, a, mc.Name, vi, vc)
			}
		}
	}
}

// TestCompiledBitIdentity is the compiled path's core contract: over
// random programs, all binding modes, and both hardware systems, the
// compiled trace replays with counters, trampoline histograms, and
// memory side effects bit-identical to the interpreter, run after run.
func TestCompiledBitIdentity(t *testing.T) {
	modes := []linker.BindingMode{linker.BindLazy, linker.BindNow, linker.BindStatic, linker.BindPatched}
	for seed := uint64(0); seed < 25; seed++ {
		for _, mode := range modes {
			for _, enhanced := range []bool{false, true} {
				interp, compiled := newPair(t, seed, mode, enhanced)
				for r := 0; r < 3; r++ {
					ri, errI := interp.RunSymbol("main", 2_000_000)
					rc, errC := compiled.RunSymbol("main", 2_000_000)
					if errI != nil || errC != nil {
						t.Fatalf("seed %d mode %v enhanced=%v run %d: %v / %v", seed, mode, enhanced, r, errI, errC)
					}
					if ri != rc {
						t.Fatalf("seed %d mode %v enhanced=%v run %d: results %+v vs %+v", seed, mode, enhanced, r, ri, rc)
					}
					comparePair(t, "bit-identity", interp, compiled)
				}
			}
		}
	}
}

// TestCompiledBudgetIdentity: because a superblock is only dispatched
// when it fits entirely under the limit, budget exhaustion must land
// on the same instruction with the same error and the same partial
// counters on both paths.
func TestCompiledBudgetIdentity(t *testing.T) {
	for _, budget := range []uint64{1, 2, 3, 5, 7, 17, 50, 199, 1000} {
		interp, compiled := newPair(t, 11, linker.BindLazy, true)
		ri, errI := interp.RunSymbol("main", budget)
		rc, errC := compiled.RunSymbol("main", budget)
		if (errI == nil) != (errC == nil) {
			t.Fatalf("budget %d: error mismatch: %v vs %v", budget, errI, errC)
		}
		if errI != nil && errI.Error() != errC.Error() {
			t.Fatalf("budget %d: errors diverged: %q vs %q", budget, errI, errC)
		}
		if ri != rc {
			t.Fatalf("budget %d: partial results diverged: %+v vs %+v", budget, ri, rc)
		}
		comparePair(t, "budget", interp, compiled)
	}
}

// TestCompiledSampleIdentity: interval-sample boundaries are part of
// the bit-identity contract — with the same sampler attached, both
// paths must emit identical sample series, boundary for boundary.
func TestCompiledSampleIdentity(t *testing.T) {
	for _, every := range []uint64{64, 700} {
		interp, compiled := newPair(t, 4, linker.BindLazy, true)
		var si, sc []IntervalSample
		interp.SetSampler(every, func(s IntervalSample) { si = append(si, s) })
		compiled.SetSampler(every, func(s IntervalSample) { sc = append(sc, s) })
		for r := 0; r < 2; r++ {
			if _, err := interp.RunSymbol("main", 0); err != nil {
				t.Fatal(err)
			}
			if _, err := compiled.RunSymbol("main", 0); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(si, sc) {
			t.Fatalf("every=%d: sample series diverged (%d vs %d samples)", every, len(si), len(sc))
		}
		if len(si) == 0 {
			t.Fatalf("every=%d: no samples emitted", every)
		}
	}
}

// TestCompiledUnmappedIdentity: execution reaching an address with no
// decoded instruction must produce the same wrapped ErrNoInstruction,
// at the same pc, with the same partial counters.
func TestCompiledUnmappedIdentity(t *testing.T) {
	interp, compiled := newPair(t, 2, linker.BindNow, false)
	ri, errI := interp.Run(0xdead000, 0)
	rc, errC := compiled.Run(0xdead000, 0)
	if !errors.Is(errI, ErrNoInstruction) || !errors.Is(errC, ErrNoInstruction) {
		t.Fatalf("want ErrNoInstruction from both paths, got %v / %v", errI, errC)
	}
	if errI.Error() != errC.Error() {
		t.Fatalf("errors diverged: %q vs %q", errI, errC)
	}
	if ri != rc || interp.Counters() != compiled.Counters() {
		t.Fatalf("partial state diverged: %+v vs %+v", ri, rc)
	}
}

// TestSetProgramValidation: programs compiled for a different line
// size or a different image are rejected; nil detaches.
func TestSetProgramValidation(t *testing.T) {
	interp, compiled := newPair(t, 1, linker.BindLazy, false)
	prog := compiled.Program()
	if prog == nil {
		t.Fatal("no program installed")
	}
	if err := interp.SetProgram(Compile(interp.Image(), 128)); err == nil {
		t.Fatal("line-size mismatch accepted")
	} else if !strings.Contains(err.Error(), "line") {
		t.Fatalf("unhelpful error: %v", err)
	}
	app := objfile.New("other")
	app.NewFunc("main").ALU(40).Halt()
	im, err := linker.Link(app, nil, linker.Options{Mode: linker.BindStatic})
	if err != nil {
		t.Fatal(err)
	}
	if err := New(im, DefaultConfig()).SetProgram(prog); err == nil {
		t.Fatal("foreign program accepted")
	}
	// Detach mid-life: the CPU must revert to interpretation with
	// coherent execution counts.
	if _, err := compiled.RunSymbol("main", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := interp.RunSymbol("main", 0); err != nil {
		t.Fatal(err)
	}
	if err := compiled.SetProgram(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := compiled.RunSymbol("main", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := interp.RunSymbol("main", 0); err != nil {
		t.Fatal(err)
	}
	comparePair(t, "detach", interp, compiled)
}

// TestSwitchesKeepCounts pins SetProgram's spill/fill rule: a CPU that
// changes kernel paths between runs — detaching to the interpreter,
// re-attaching its program, attaching a fresh compile as a churn
// recompile does — keeps every PC's execution count, and so stays
// bit-identical to a CPU that only interprets.
func TestSwitchesKeepCounts(t *testing.T) {
	for seed := uint64(40); seed < 48; seed++ {
		interp, switching := newPair(t, seed, linker.BindLazy, seed%2 == 0)
		prog := switching.Program()
		for r := 0; r < 7; r++ {
			var p *Program
			switch r % 3 {
			case 1:
				p = prog
			case 2:
				p = Compile(switching.Image(), switching.cfg.L1I.LineBytes)
			}
			if err := switching.SetProgram(p); err != nil {
				t.Fatal(err)
			}
			ri, errI := interp.RunSymbol("main", 2_000_000)
			rs, errS := switching.RunSymbol("main", 2_000_000)
			if errI != nil || errS != nil {
				t.Fatalf("seed %d run %d: %v / %v", seed, r, errI, errS)
			}
			if ri != rs {
				t.Fatalf("seed %d run %d: results %+v vs %+v", seed, r, ri, rs)
			}
			comparePair(t, fmt.Sprintf("seed %d run %d", seed, r), interp, switching)
		}
	}
}

// TestCompiledForkSharing: one Program compiled from a master image
// must drive CPUs running forks of that master — the pool's usage.
func TestCompiledForkSharing(t *testing.T) {
	app, libs := genRandomProgram(3)
	opts := linker.Options{Mode: linker.BindLazy, Seed: 3}
	master, err := linker.Link(app, libs, opts)
	if err != nil {
		t.Fatal(err)
	}
	prog := Compile(master, DefaultConfig().L1I.LineBytes)
	ref, err := linker.Link(app, libs, opts)
	if err != nil {
		t.Fatal(err)
	}
	interp := New(ref, DefaultConfig())
	compiled := New(master.Fork(), DefaultConfig())
	if err := compiled.SetProgram(prog); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		ri, errI := interp.RunSymbol("main", 0)
		rc, errC := compiled.RunSymbol("main", 0)
		if errI != nil || errC != nil {
			t.Fatal(errI, errC)
		}
		if ri != rc {
			t.Fatalf("run %d: %+v vs %+v", r, ri, rc)
		}
	}
	if interp.Counters() != compiled.Counters() {
		t.Fatal("fork-shared program diverged from reference")
	}
}

// TestFastForwardArchEquivalence: fast-forwarding a run must leave the
// same architectural state — memory contents, execution counts, GOT
// bindings — as simulating it in detail, so a detailed run resumed
// afterwards retires exactly the same instruction stream.  (Cycle
// counts legitimately differ: fast-forward does not warm caches.)
func TestFastForwardArchEquivalence(t *testing.T) {
	for seed := uint64(20); seed < 30; seed++ {
		app, libs := genRandomProgram(seed)
		opts := linker.Options{Mode: linker.BindLazy, Seed: seed}
		imA, err := linker.Link(app, libs, opts)
		if err != nil {
			t.Fatal(err)
		}
		imB, err := linker.Link(app, libs, opts)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Seed = seed
		detailed, ffwd := New(imA, cfg), New(imB, cfg)
		if err := detailed.SetProgram(Compile(imA, cfg.L1I.LineBytes)); err != nil {
			t.Fatal(err)
		}
		if err := ffwd.SetProgram(Compile(imB, cfg.L1I.LineBytes)); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 2; r++ {
			if _, err := detailed.RunSymbol("main", 0); err != nil {
				t.Fatal(err)
			}
			if err := ffwd.FastForwardSymbol("main"); err != nil {
				t.Fatal(err)
			}
		}
		rd, err := detailed.RunSymbol("main", 0)
		if err != nil {
			t.Fatal(err)
		}
		rf, err := ffwd.RunSymbol("main", 0)
		if err != nil {
			t.Fatal(err)
		}
		if rd.Instructions != rf.Instructions {
			t.Fatalf("seed %d: post-skip run retired %d instructions, want %d", seed, rf.Instructions, rd.Instructions)
		}
		for mi, m := range imA.Modules() {
			mb := imB.Modules()[mi]
			for a := m.DataBase; a < m.DataEnd; a += 8 {
				if va, vb := imA.Memory().Read64(a), imB.Memory().Read64(a); va != vb {
					t.Fatalf("seed %d: memory diverged at %#x in %s: %#x vs %#x", seed, a, mb.Name, va, vb)
				}
			}
		}
		if imA.Resolutions() != imB.Resolutions() {
			t.Fatalf("seed %d: resolutions %d vs %d", seed, imA.Resolutions(), imB.Resolutions())
		}
	}
}

// TestFastForwardRequiresProgram documents the compiled-only contract.
func TestFastForwardRequiresProgram(t *testing.T) {
	interp, _ := newPair(t, 0, linker.BindLazy, false)
	if err := interp.FastForwardSymbol("main"); err == nil {
		t.Fatal("fast-forward without a program accepted")
	}
}
