package cpu

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/linker"
	"repro/internal/mem"
)

// ffBudgets is the call sequence of TestFastForwardBlockIdentity: full
// runs (budget 0), every budget from 1 to 48 steps, then larger ones.
// The calls run back to back, each from the state the last one left,
// and the sweep makes budgets end before, inside and exactly at the
// end of whichever superblock is in flight.
var ffBudgets = func() []uint64 {
	b := []uint64{0}
	for n := uint64(1); n <= 48; n++ {
		b = append(b, n)
	}
	return append(b, 0, 61, 97, 150, 233, 377, 610, 987, 1597, 0)
}()

// ffStackWindow is how many bytes below the stack top the memory
// comparison reads: far deeper than any generated program's calls go.
const ffStackWindow = 4096

// compareFF asserts that a block-skipping fast-forward left got in the
// state single-stepping left ref: the same error, stack pointer, dense
// per-PC counts, GOT stores and resolutions, ABTB snoops and flushes,
// pending demand pages and memory.
func compareFF(t *testing.T, label string, ref, got *CPU, errR, errG error) {
	t.Helper()
	if fmt.Sprint(errR) != fmt.Sprint(errG) {
		t.Fatalf("%s: errors diverged:\nsingle-step: %v\nblocks:      %v", label, errR, errG)
	}
	if ref.sp != got.sp {
		t.Fatalf("%s: sp %#x vs %#x", label, ref.sp, got.sp)
	}
	if !slices.Equal(ref.counts, got.counts) {
		t.Fatalf("%s: per-PC counts diverged", label)
	}
	if ref.gotStores != got.gotStores || ref.img.Resolutions() != got.img.Resolutions() {
		t.Fatalf("%s: GOT stores %d vs %d, resolutions %d vs %d", label,
			ref.gotStores, got.gotStores, ref.img.Resolutions(), got.img.Resolutions())
	}
	if ra, ga := ref.ab, got.ab; ra != nil {
		if ra.StoreSnoops() != ga.StoreSnoops() || ra.FlushingStores() != ga.FlushingStores() || ra.Flushes() != ga.Flushes() {
			t.Fatalf("%s: ABTB snoops/flushing stores/flushes %d/%d/%d vs %d/%d/%d", label,
				ra.StoreSnoops(), ra.FlushingStores(), ra.Flushes(), ga.StoreSnoops(), ga.FlushingStores(), ga.Flushes())
		}
	}
	if pr, pg := ref.img.DemandPending(), got.img.DemandPending(); pr != pg {
		t.Fatalf("%s: demand pages pending %d vs %d", label, pr, pg)
	}
	compareMemory(t, label, ref, got)
}

// compareMemory asserts that two CPUs over identically linked images
// hold the same data in every module (GOT included) and on the stack.
func compareMemory(t *testing.T, label string, a, b *CPU) {
	t.Helper()
	ma, mb := a.img.Memory(), b.img.Memory()
	check := func(lo, hi uint64, where string) {
		for x := lo; x < hi; x += 8 {
			if va, vb := ma.Read64(x), mb.Read64(x); va != vb {
				t.Fatalf("%s: memory diverged at %#x in %s: %#x vs %#x", label, x, where, va, vb)
			}
		}
	}
	for _, m := range a.img.Modules() {
		check(m.DataBase, m.DataEnd, m.Name)
	}
	check(a.img.StackTop()-ffStackWindow, a.img.StackTop(), "the stack")
}

// ffCoverage counts where budgeted fast-forward calls stopped relative
// to the block program's superblocks.
type ffCoverage struct{ inside, atEnd int }

// note classifies the stop named by a budget-exhaustion error: strictly
// inside a superblock (the block did not fit, so it was stepped) or at
// a superblock's end (the block fit exactly).
func (cv *ffCoverage) note(p *Program, err error) {
	if err == nil {
		return
	}
	var budget, pc uint64
	if _, serr := fmt.Sscanf(err.Error(), "cpu: fast-forward budget %d exhausted at pc %v", &budget, &pc); serr != nil {
		return
	}
	pg := p.pages[pc>>mem.PageShift]
	if pg == nil {
		return
	}
	idx := pg[pc&(mem.PageSize-1)]
	for h, bi := range p.blockAt {
		if bi < 0 {
			continue
		}
		switch b := &p.blocks[bi]; {
		case idx > int32(h) && idx < int32(h)+b.nInstr:
			cv.inside++
			return
		case idx == b.endIdx:
			cv.atEnd++
			return
		}
	}
}

// TestFastForwardBlockIdentity pins FastForward's superblock skipping
// to its single-step path: fast-forwarding with the real Program and
// with stepOnly (the same compile with no superblocks) must leave
// identical architectural state after every call of a budgeted
// sequence, over random programs in every binding mode under Base and
// Enhanced, and over a demand-loaded churned library whose straight-
// line body spans pages that only superblocks reach.
func TestFastForwardBlockIdentity(t *testing.T) {
	var cv ffCoverage
	modes := []linker.BindingMode{linker.BindLazy, linker.BindNow, linker.BindStatic, linker.BindPatched}
	for seed := uint64(0); seed < 16; seed++ {
		for _, mode := range modes {
			for _, enhanced := range []bool{false, true} {
				ref, got := newPair(t, seed, mode, enhanced)
				main, _ := ref.img.Symbol("main")
				for i, b := range ffBudgets {
					errR, errG := ref.FastForward(main, b), got.FastForward(main, b)
					compareFF(t, fmt.Sprintf("seed %d mode %v enhanced=%v call %d (budget %d)", seed, mode, enhanced, i, b), ref, got, errR, errG)
					cv.note(got.prog, errR)
				}
			}
		}
	}

	// jfn's body is 3000 ALUs (12 KiB), so the page after jfn's first
	// holds nothing but ALUs: no instruction there is stepped singly,
	// and only the superblocks' page replay maps it.
	const longBody = 3000
	for _, enhanced := range []bool{false, true} {
		cfg := DefaultConfig()
		if enhanced {
			cfg = EnhancedConfig()
		}
		cfg.Seed = 5
		ref, got := New(churnImage(t), cfg), New(churnImage(t), cfg)
		churnOnce(t, ref, longBody, true)
		churnOnce(t, got, longBody, true)
		if err := ref.SetProgram(stepOnly(ref.img, cfg.L1I.LineBytes)); err != nil {
			t.Fatal(err)
		}
		jfn, _ := ref.img.Symbol("jfn")
		inner := (jfn>>mem.PageShift + 1) << mem.PageShift
		for _, pc := range []uint64{inner, inner + mem.PageSize - isa.SizeALU} {
			if in, ok := ref.img.InstrAt(pc); !ok || in.Op != isa.ALU {
				t.Fatalf("test premise broken: %#x in jfn's body is not an ALU", pc)
			}
		}
		pending := ref.img.DemandPending()
		main, _ := ref.img.Symbol("main")
		for i, b := range ffBudgets {
			errR, errG := ref.FastForward(main, b), got.FastForward(main, b)
			compareFF(t, fmt.Sprintf("churned enhanced=%v call %d (budget %d)", enhanced, i, b), ref, got, errR, errG)
			cv.note(got.prog, errR)
		}
		if got.img.DemandPending() >= pending {
			t.Fatalf("churned enhanced=%v: fast-forward mapped no demand pages (%d pending)", enhanced, pending)
		}
	}

	if cv.inside == 0 || cv.atEnd == 0 {
		t.Fatalf("budgets never stopped inside a superblock (%d) or at its end (%d)", cv.inside, cv.atEnd)
	}
	t.Logf("budgeted calls stopped inside a superblock %d times, at its end %d times", cv.inside, cv.atEnd)
}

// ffCase is one fast-forward case: a fixed one of
// TestFastForwardArchEquivalence or one decoded from fuzz input.
type ffCase struct {
	seed     uint64 // genRandomProgram seed
	mode     linker.BindingMode
	ifunc    int // linker IFuncLevel
	enhanced bool
	churn    bool // unload the last library and demand-load it again (lazy and now modes)
	runs     int  // full runs before the resumed detailed run
	budgets  []uint64
}

// decodeFFCase decodes flags as bits 0-1 the binding mode, bit 2
// Enhanced, bit 3 demand churn and bits 4-5 the full runs less one,
// and budgets as up to eight little-endian uint16 step budgets (0 runs
// to completion).
func decodeFFCase(seed uint64, flags uint8, budgets []byte) ffCase {
	modes := [...]linker.BindingMode{linker.BindLazy, linker.BindNow, linker.BindStatic, linker.BindPatched}
	fc := ffCase{
		seed:     seed,
		mode:     modes[flags&3],
		ifunc:    int(seed % 3),
		enhanced: flags&4 != 0,
		churn:    flags&8 != 0 && flags&2 == 0,
		runs:     1 + int(flags>>4&3),
	}
	for i := 0; i+1 < len(budgets) && len(fc.budgets) < 8; i += 2 {
		fc.budgets = append(fc.budgets, uint64(binary.LittleEndian.Uint16(budgets[i:])))
	}
	return fc
}

// newCPU links the case's program into a fresh image and returns a CPU
// on it, after the case's churn.
func (fc ffCase) newCPU(t *testing.T) *CPU {
	t.Helper()
	app, libs := genRandomProgram(fc.seed)
	im, err := linker.Link(app, libs, linker.Options{Mode: fc.mode, Seed: fc.seed, IFuncLevel: fc.ifunc})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	if fc.enhanced {
		cfg = EnhancedConfig()
	}
	cfg.Seed = fc.seed
	c := New(im, cfg)
	if fc.churn {
		last := libs[len(libs)-1]
		if err := im.Unload(last.Name(), c.LinkerStore); err != nil {
			t.Fatal(err)
		}
		if _, err := im.Load(last, linker.LoadOptions{Demand: true, Write: c.LinkerStore}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// checkResumeEquivalence asserts, for one case, that a detailed run
// resumed after fc.runs full fast-forwards retires the same
// instructions as one resumed after as many detailed runs (counting
// each ABTB-skipped trampoline instruction as retired, since only the
// detailed runs train the ABTB), and leaves the same memory and GOT
// bindings.
func checkResumeEquivalence(t *testing.T, fc ffCase) {
	t.Helper()
	detailed, ffwd := fc.newCPU(t), fc.newCPU(t)
	for r := 0; r < fc.runs; r++ {
		if _, err := detailed.RunSymbol("main", 0); err != nil {
			t.Fatal(err)
		}
		if err := ffwd.FastForwardSymbol("main"); err != nil {
			t.Fatal(err)
		}
	}
	resumed := func(c *CPU) uint64 {
		before := c.Counters()
		if _, err := c.RunSymbol("main", 0); err != nil {
			t.Fatal(err)
		}
		d := c.Counters().Sub(before)
		return d.Instructions + d.TrampSkips
	}
	if nd, nf := resumed(detailed), resumed(ffwd); nd != nf {
		t.Fatalf("%+v: resumed run retired %d instructions after fast-forward, %d after detailed runs", fc, nf, nd)
	}
	compareMemory(t, fmt.Sprintf("%+v: resumed", fc), detailed, ffwd)
	if rd, rf := detailed.img.Resolutions(), ffwd.img.Resolutions(); rd != rf {
		t.Fatalf("%+v: resolutions %d vs %d", fc, rd, rf)
	}
}

// FuzzFastForward checks fast-forward on generated inputs: as in
// TestFastForwardBlockIdentity, block-skipping and single-step
// fast-forward must agree after every call of the budget list, and
// the case must pass checkResumeEquivalence.
//
//	go test -run '^$' -fuzz '^FuzzFastForward$' -fuzztime 30s ./internal/cpu/
func FuzzFastForward(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, flags uint8, budgets []byte) {
		fc := decodeFFCase(seed, flags, budgets)

		ref, got := fc.newCPU(t), fc.newCPU(t)
		if err := ref.SetProgram(stepOnly(ref.img, ref.cfg.L1I.LineBytes)); err != nil {
			t.Fatal(err)
		}
		main, _ := ref.img.Symbol("main")
		for i, b := range fc.budgets {
			errR, errG := ref.FastForward(main, b), got.FastForward(main, b)
			compareFF(t, fmt.Sprintf("%+v call %d", fc, i), ref, got, errR, errG)
		}
		checkResumeEquivalence(t, fc)
	})
}
