package cpu

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/linker"
	"repro/internal/mem"
	"repro/internal/objfile"
)

// stepOnly compiles img with every superblock head cleared, so Run
// retires every instruction through stepIdx: the single-step reference
// that block replay must reproduce exactly.
func stepOnly(img *linker.Image, lineBytes int) *Program {
	p := Compile(img, lineBytes)
	for i := range p.blockAt {
		p.blockAt[i] = -1
	}
	return p
}

// newPair links the same random program twice (lazy GOT state is
// mutable, so each CPU needs its own image) and returns a single-step
// reference CPU and a block-replaying CPU, which compiles at its first
// Run, with otherwise identical configuration.
func newPair(t *testing.T, seed uint64, mode linker.BindingMode, enhanced bool) (ref, compiled *CPU) {
	t.Helper()
	app, libs := genRandomProgram(seed)
	opts := linker.Options{Mode: mode, Seed: seed, IFuncLevel: int(seed % 3)}
	cfg := DefaultConfig()
	if enhanced {
		cfg = EnhancedConfig()
	}
	cfg.Seed = seed
	imR, err := linker.Link(app, libs, opts)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	imC, err := linker.Link(app, libs, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref = New(imR, cfg)
	if err := ref.SetProgram(stepOnly(imR, cfg.L1I.LineBytes)); err != nil {
		t.Fatal(err)
	}
	return ref, New(imC, cfg)
}

// comparePair asserts the two CPUs are in bit-identical measurement
// and architectural states.
func comparePair(t *testing.T, label string, ref, compiled *CPU) {
	t.Helper()
	if cr, cc := ref.Counters(), compiled.Counters(); cr != cc {
		t.Fatalf("%s: counters diverged\nsingle-step: %+v\nblocks:      %+v", label, cr, cc)
	}
	if fr, fc := ref.TrampFreq(), compiled.TrampFreq(); !reflect.DeepEqual(fr, fc) {
		t.Fatalf("%s: trampoline frequencies diverged: %v vs %v", label, fr, fc)
	}
	for mi, m := range ref.Image().Modules() {
		mc := compiled.Image().Modules()[mi]
		for a := m.DataBase; a < m.DataEnd; a += 8 {
			if vr, vc := ref.Image().Memory().Read64(a), compiled.Image().Memory().Read64(a); vr != vc {
				t.Fatalf("%s: memory diverged at %#x in %s: %#x vs %#x", label, a, mc.Name, vr, vc)
			}
		}
	}
}

// TestCompiledBitIdentity is block replay's core contract: over random
// programs, all binding modes, and both hardware systems, replaying
// superblocks gives counters, trampoline histograms, and memory side
// effects bit-identical to single-stepping the same Program, run after
// run.
func TestCompiledBitIdentity(t *testing.T) {
	modes := []linker.BindingMode{linker.BindLazy, linker.BindNow, linker.BindStatic, linker.BindPatched}
	for seed := uint64(0); seed < 25; seed++ {
		for _, mode := range modes {
			for _, enhanced := range []bool{false, true} {
				ref, compiled := newPair(t, seed, mode, enhanced)
				for r := 0; r < 3; r++ {
					rr, errR := ref.RunSymbol("main", 2_000_000)
					rc, errC := compiled.RunSymbol("main", 2_000_000)
					if errR != nil || errC != nil {
						t.Fatalf("seed %d mode %v enhanced=%v run %d: %v / %v", seed, mode, enhanced, r, errR, errC)
					}
					if rr != rc {
						t.Fatalf("seed %d mode %v enhanced=%v run %d: results %+v vs %+v", seed, mode, enhanced, r, rr, rc)
					}
					comparePair(t, "bit-identity", ref, compiled)
				}
			}
		}
	}
}

// TestCompiledBudgetIdentity: because a superblock is only dispatched
// when it fits entirely under the limit, budget exhaustion must land
// on the same instruction with the same error and the same partial
// counters under single-step and block replay.
func TestCompiledBudgetIdentity(t *testing.T) {
	for _, budget := range []uint64{1, 2, 3, 5, 7, 17, 50, 199, 1000} {
		ref, compiled := newPair(t, 11, linker.BindLazy, true)
		rr, errR := ref.RunSymbol("main", budget)
		rc, errC := compiled.RunSymbol("main", budget)
		if (errR == nil) != (errC == nil) {
			t.Fatalf("budget %d: error mismatch: %v vs %v", budget, errR, errC)
		}
		if errR != nil && errR.Error() != errC.Error() {
			t.Fatalf("budget %d: errors diverged: %q vs %q", budget, errR, errC)
		}
		if rr != rc {
			t.Fatalf("budget %d: partial results diverged: %+v vs %+v", budget, rr, rc)
		}
		comparePair(t, "budget", ref, compiled)
	}
}

// TestCompiledSampleIdentity: interval-sample boundaries are part of
// the bit-identity contract — with the same sampler attached, single
// steps and blocks must emit identical sample series, boundary for boundary.
func TestCompiledSampleIdentity(t *testing.T) {
	for _, every := range []uint64{64, 700} {
		ref, compiled := newPair(t, 4, linker.BindLazy, true)
		var sr, sc []IntervalSample
		ref.SetSampler(every, func(s IntervalSample) { sr = append(sr, s) })
		compiled.SetSampler(every, func(s IntervalSample) { sc = append(sc, s) })
		for r := 0; r < 2; r++ {
			if _, err := ref.RunSymbol("main", 0); err != nil {
				t.Fatal(err)
			}
			if _, err := compiled.RunSymbol("main", 0); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(sr, sc) {
			t.Fatalf("every=%d: sample series diverged (%d vs %d samples)", every, len(sr), len(sc))
		}
		if len(sr) == 0 {
			t.Fatalf("every=%d: no samples emitted", every)
		}
	}
}

// TestCompiledUnmappedIdentity: execution reaching an address with no
// decoded instruction must produce the same wrapped ErrNoInstruction,
// at the same pc, with the same partial counters.
func TestCompiledUnmappedIdentity(t *testing.T) {
	ref, compiled := newPair(t, 2, linker.BindNow, false)
	rr, errR := ref.Run(0xdead000, 0)
	rc, errC := compiled.Run(0xdead000, 0)
	if !errors.Is(errR, ErrNoInstruction) || !errors.Is(errC, ErrNoInstruction) {
		t.Fatalf("want ErrNoInstruction from both, got %v / %v", errR, errC)
	}
	if errR.Error() != errC.Error() {
		t.Fatalf("errors diverged: %q vs %q", errR, errC)
	}
	if rr != rc || ref.Counters() != compiled.Counters() {
		t.Fatalf("partial state diverged: %+v vs %+v", rr, rc)
	}
}

// TestSetProgramValidation: nil, programs compiled for a different
// line size and programs compiled from a different image are rejected.
func TestSetProgramValidation(t *testing.T) {
	ref, _ := newPair(t, 1, linker.BindLazy, false)
	if err := ref.SetProgram(nil); err == nil {
		t.Fatal("nil program accepted")
	}
	if err := ref.SetProgram(Compile(ref.Image(), 128)); err == nil {
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
	if err := New(im, DefaultConfig()).SetProgram(ref.prog); err == nil {
		t.Fatal("foreign program accepted")
	}
}

// TestSwitchesKeepCounts pins install's spill/fill rule: a CPU whose
// program is replaced between runs — by a fresh compile as a churn
// recompile does, by its first program again, by a single-step
// compile — keeps every PC's execution count, and so stays
// bit-identical to a CPU that keeps one program throughout.
func TestSwitchesKeepCounts(t *testing.T) {
	for seed := uint64(40); seed < 48; seed++ {
		ref, switching := newPair(t, seed, linker.BindLazy, seed%2 == 0)
		line := switching.cfg.L1I.LineBytes
		first := Compile(switching.Image(), line)
		for r := 0; r < 7; r++ {
			p := first
			switch r % 3 {
			case 1:
				p = Compile(switching.Image(), line)
			case 2:
				p = stepOnly(switching.Image(), line)
			}
			if err := switching.SetProgram(p); err != nil {
				t.Fatal(err)
			}
			rr, errR := ref.RunSymbol("main", 2_000_000)
			rs, errS := switching.RunSymbol("main", 2_000_000)
			if errR != nil || errS != nil {
				t.Fatalf("seed %d run %d: %v / %v", seed, r, errR, errS)
			}
			if rr != rs {
				t.Fatalf("seed %d run %d: results %+v vs %+v", seed, r, rr, rs)
			}
			comparePair(t, fmt.Sprintf("seed %d run %d", seed, r), ref, switching)
		}
	}
}

// checkThreading compiles img and checks the program against the
// image's instruction map, independently of execution: the code array
// is the map in PC order; next and tgt index the instruction at
// pc+Size and Target, and are -1 only when there is none; a direct
// call carries its target's trampoline index; counter slots belong
// exactly to Loads, Stores and JmpConds and are dense and unique; and
// lookupIdx agrees with the map at every byte of every instruction,
// and misses on a code-free page that shares the memo slot of the page
// it just looked up.
func checkThreading(t *testing.T, label string, img *linker.Image) {
	t.Helper()
	cfg := DefaultConfig()
	p := Compile(img, cfg.L1I.LineBytes)
	c := New(img, cfg)
	if err := c.SetProgram(p); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	instrs := img.Instructions()
	if len(p.code) != len(instrs) {
		t.Fatalf("%s: %d compiled instructions, image has %d", label, len(p.code), len(instrs))
	}
	index := make(map[uint64]int32, len(p.code))
	for i := range p.code {
		ci := &p.code[i]
		if in, ok := instrs[ci.pc]; !ok || *in != ci.in {
			t.Fatalf("%s: code[%d] at %#x does not match the image", label, i, ci.pc)
		}
		if i > 0 && p.code[i-1].pc >= ci.pc {
			t.Fatalf("%s: code[%d] at %#x out of PC order", label, i, ci.pc)
		}
		index[ci.pc] = int32(i)
	}
	indexOf := func(pc uint64) int32 {
		if i, ok := index[pc]; ok {
			return i
		}
		return -1
	}
	codePages := make(map[uint64]bool)
	for pc := range instrs {
		codePages[pc>>mem.PageShift] = true
	}
	aliases := make(map[uint64]uint64) // code page -> code-free page with the same memo slot
	aliasOf := func(pn uint64) uint64 {
		if q, ok := aliases[pn]; ok {
			return q
		}
		q := pn + 1
		for pageMemoIdx(q) != pageMemoIdx(pn) || codePages[q] {
			q++
		}
		aliases[pn] = q
		return q
	}
	slots := make([]bool, p.counters)
	for i := range p.code {
		ci := &p.code[i]
		if want := indexOf(ci.pc + uint64(ci.in.Size)); ci.next != want {
			t.Fatalf("%s: %#x %v: next = %d, want %d", label, ci.pc, ci.in.Op, ci.next, want)
		}
		wantTgt, wantTramp := int32(-1), int32(-1)
		switch ci.in.Op {
		case isa.Call, isa.Jmp, isa.JmpCond:
			wantTgt = indexOf(ci.in.Target)
		}
		if ci.in.Op == isa.Call {
			wantTramp = int32(img.TrampolineIndex(ci.in.Target))
		}
		if ci.tgt != wantTgt || ci.trampIdx != wantTramp {
			t.Fatalf("%s: %#x %v: tgt/trampIdx = %d/%d, want %d/%d", label, ci.pc, ci.in.Op, ci.tgt, ci.trampIdx, wantTgt, wantTramp)
		}
		switch ci.in.Op {
		case isa.Load, isa.Store, isa.JmpCond:
			if ci.cnt < 0 || int(ci.cnt) >= p.counters || slots[ci.cnt] {
				t.Fatalf("%s: %#x %v: counter slot %d missing, out of range or shared", label, ci.pc, ci.in.Op, ci.cnt)
			}
			slots[ci.cnt] = true
		default:
			if ci.cnt != -1 {
				t.Fatalf("%s: %#x %v holds counter slot %d", label, ci.pc, ci.in.Op, ci.cnt)
			}
		}
		for a := ci.pc; a <= ci.pc+uint64(ci.in.Size); a++ {
			if got := c.lookupIdx(a); got != indexOf(a) {
				t.Fatalf("%s: lookupIdx(%#x) = %d, want %d", label, a, got, indexOf(a))
			}
		}
		c.lookupIdx(ci.pc)
		alias := aliasOf(ci.pc>>mem.PageShift)<<mem.PageShift | ci.pc&(mem.PageSize-1)
		if got := c.lookupIdx(alias); got != -1 {
			t.Fatalf("%s: lookupIdx(%#x) = %d on a code-free page, right after %#x", label, alias, got, ci.pc)
		}
	}
	for s, used := range slots {
		if !used {
			t.Fatalf("%s: counter slot %d unused (slots not dense)", label, s)
		}
	}
	if got := c.lookupIdx(0xdead000); got != indexOf(0xdead000) {
		t.Fatalf("%s: lookupIdx of an unmapped page = %d", label, got)
	}
}

// TestCompileThreading checks the compiler's PC-to-index threading
// structurally, over random programs in every binding mode and both
// PLT flavours, and over an image churned by an unload and a reload.
func TestCompileThreading(t *testing.T) {
	modes := []linker.BindingMode{linker.BindLazy, linker.BindNow, linker.BindStatic, linker.BindPatched}
	for seed := uint64(0); seed < 12; seed++ {
		for _, mode := range modes {
			for _, plt := range []linker.PLTStyle{linker.PLTx86, linker.PLTARM} {
				app, libs := genRandomProgram(seed)
				im, err := linker.Link(app, libs, linker.Options{Mode: mode, Seed: seed, IFuncLevel: int(seed % 3), PLT: plt})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				checkThreading(t, fmt.Sprintf("seed %d mode %v plt %v", seed, mode, plt), im)
			}
		}
	}
	im := churnImage(t)
	if err := im.Unload("libdyn", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := im.Load(churnLib(12), linker.LoadOptions{Demand: true}); err != nil {
		t.Fatal(err)
	}
	checkThreading(t, "churned", im)
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
	imR, err := linker.Link(app, libs, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref := New(imR, DefaultConfig())
	if err := ref.SetProgram(stepOnly(imR, DefaultConfig().L1I.LineBytes)); err != nil {
		t.Fatal(err)
	}
	compiled := New(master.Fork(), DefaultConfig())
	if err := compiled.SetProgram(prog); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		rr, errR := ref.RunSymbol("main", 0)
		rc, errC := compiled.RunSymbol("main", 0)
		if errR != nil || errC != nil {
			t.Fatal(errR, errC)
		}
		if rr != rc {
			t.Fatalf("run %d: %+v vs %+v", r, rr, rc)
		}
	}
	if ref.Counters() != compiled.Counters() {
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
