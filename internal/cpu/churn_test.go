package cpu

import (
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/linker"
	"repro/internal/objfile"
)

// churnLib builds generation `alu` of a small churnable library: a
// dispatch function jfn, a shorter alternate implementation impl_a a
// JIT-style rebind can swap in, and a helper.  Different alu weights
// give different generations; smaller weights fit the original span so
// reloads reuse the address range.
func churnLib(alu int) *objfile.Object {
	lib := objfile.New("libdyn")
	lib.AddData("ld", 8192)
	f := lib.NewFunc("jfn")
	f.ALU(alu)
	f.Load("ld", 0, 32)
	f.Store("ld", 256, 16, 3)
	f.Ret()
	lib.NewFunc("impl_a").ALU(4).Ret()
	lib.NewFunc("hfn").ALU(8).Ret()
	return lib
}

// churnApp builds an app with four entries: main exercises the library,
// warm populates the ABTB through repeated dispatch calls, flip rewrites
// the jfn GOT slot to impl_a from guest code (the jit workload's
// mechanism), and callonly re-dispatches after the flip.
func churnApp() *objfile.Object {
	app := objfile.New("app")
	app.AddData("d", 4096)
	m := app.NewFunc("main")
	for i := 0; i < 4; i++ {
		m.Call("jfn")
		m.ALU(2)
		m.Call("hfn")
	}
	m.Halt()
	w := app.NewFunc("warm")
	for i := 0; i < 6; i++ {
		w.Call("jfn")
		w.ALU(3)
	}
	w.Halt()
	fl := app.NewFunc("flip")
	fl.RebindImport("jfn", "impl_a")
	fl.Halt()
	co := app.NewFunc("callonly")
	for i := 0; i < 6; i++ {
		co.Call("jfn")
		co.ALU(3)
	}
	co.Halt()
	return app
}

func churnImage(t *testing.T) *linker.Image {
	t.Helper()
	im, err := linker.Link(churnApp(), []*objfile.Object{churnLib(20)}, linker.Options{Mode: linker.BindLazy, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// churnOnce rotates libdyn to its next generation through the CPU's
// LinkerStore — the production path workload churn takes.
func churnOnce(t *testing.T, c *CPU, alu int, demand bool) {
	t.Helper()
	im := c.Image()
	if err := im.Unload("libdyn", c.LinkerStore); err != nil {
		t.Fatal(err)
	}
	if _, err := im.Load(churnLib(alu), linker.LoadOptions{Demand: demand, Write: c.LinkerStore}); err != nil {
		t.Fatal(err)
	}
}

// TestStaleProgramTraps is the pooled-trace staleness regression: a
// trace compiled before an unload is never replayed.  Run recompiles,
// and the call into the unloaded library then traps in the resolver on
// the tombstoned GOT word instead of branching into freed code;
// SetProgram refuses the stale trace; and after a reload Run works
// again with no manual recompile.
func TestStaleProgramTraps(t *testing.T) {
	im := churnImage(t)
	c := New(im, DefaultConfig())
	if _, err := c.RunSymbol("main", 0); err != nil {
		t.Fatal(err)
	}
	stale := c.prog

	if err := im.Unload("libdyn", c.LinkerStore); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunSymbol("main", 0); err == nil {
		t.Fatal("run through an unloaded library succeeded")
	} else if !strings.Contains(err.Error(), "linker: resolve") {
		t.Fatalf("call into an unloaded library did not trap in the resolver: %v", err)
	}
	if c.prog == stale || c.prog.Generation() != im.Generation() {
		t.Fatal("Run replayed the stale trace instead of recompiling")
	}
	if err := c.SetProgram(stale); err == nil {
		t.Fatal("stale program re-installed without error")
	} else if !strings.Contains(err.Error(), "generation") {
		t.Fatalf("unhelpful stale SetProgram error: %v", err)
	}

	if _, err := im.Load(churnLib(12), linker.LoadOptions{Write: c.LinkerStore}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunSymbol("main", 0); err != nil {
		t.Fatalf("run after reload: %v", err)
	}
}

// countAt returns the live execution count of the counted instruction
// at pc, or false if the installed program has none there.
func countAt(c *CPU, pc uint64) (uint64, bool) {
	idx := c.lookupIdx(pc)
	if idx < 0 || c.prog.code[idx].cnt < 0 {
		return 0, false
	}
	return c.counts[c.prog.code[idx].cnt], true
}

// TestCountsSurviveChurnGap pins the per-PC count model across churn: a
// swept Load's count survives an unload and a reload of a build that
// has no counted instruction at its PC, and resumes when a later build
// brings a counted instruction back to that PC.  Keeping only the
// previous program's counts at each recompile would lose it.
func TestCountsSurviveChurnGap(t *testing.T) {
	c := New(churnImage(t), DefaultConfig())
	if _, err := c.RunSymbol("main", 0); err != nil {
		t.Fatal(err)
	}
	jfn, _ := c.Image().Symbol("jfn")
	x := jfn
	for in, _ := c.Image().InstrAt(x); in.Op != isa.Load; in, _ = c.Image().InstrAt(x) {
		x += uint64(in.Size)
	}
	k, ok := countAt(c, x)
	if !ok || k == 0 {
		t.Fatalf("swept load at %#x has count %d (counted %v), want > 0", x, k, ok)
	}

	churnOnce(t, c, 12, false)
	if _, err := c.RunSymbol("main", 0); err != nil {
		t.Fatal(err)
	}
	if n, ok := countAt(c, x); ok {
		t.Fatalf("reload left a counted instruction at %#x (count %d); the test needs a gap", x, n)
	}

	churnOnce(t, c, 20, false)
	c.syncChurn()
	if n, ok := countAt(c, x); !ok || n != k {
		t.Fatalf("count at %#x after the gap = %d (counted %v), want %d", x, n, ok, k)
	}
}

// TestFastForwardGOTStoreSnoop pins the sampled-path bug this PR fixes:
// a fast-forwarded stretch containing a GOT store (here a JIT-style
// rebind of jfn to impl_a) must snoop the store into the ABTB's Bloom
// filter and flush the stale trampoline mapping, exactly as the
// detailed path would.  Without the snoop the fast-forwarded CPU keeps
// a redirect to the old implementation, and the next detailed run
// retires a different instruction stream than an all-detailed CPU.
func TestFastForwardGOTStoreSnoop(t *testing.T) {
	cfg := EnhancedConfig()
	cfg.Seed = 7
	detailed, ffwd := New(churnImage(t), cfg), New(churnImage(t), cfg)

	for _, c := range []*CPU{detailed, ffwd} {
		if _, err := c.RunSymbol("warm", 0); err != nil {
			t.Fatal(err)
		}
	}
	if ffwd.ABTB().Len() == 0 {
		t.Fatal("warm-up did not populate the ABTB; the test needs a live mapping to go stale")
	}

	// The flip runs detailed on one CPU, fast-forwarded on the other.
	if _, err := detailed.RunSymbol("flip", 0); err != nil {
		t.Fatal(err)
	}
	flushes := ffwd.ABTB().FlushingStores()
	if err := ffwd.FastForwardSymbol("flip"); err != nil {
		t.Fatal(err)
	}
	if got := ffwd.ABTB().FlushingStores(); got == flushes {
		t.Error("fast-forwarded GOT store did not flush the ABTB (store snoop dropped)")
	}

	rd, err := detailed.RunSymbol("callonly", 0)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := ffwd.RunSymbol("callonly", 0)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Instructions != rf.Instructions {
		t.Fatalf("post-skip run retired %d instructions, all-detailed retired %d: stale ABTB redirect executed the old implementation",
			rf.Instructions, rd.Instructions)
	}
	imA, imB := detailed.Image(), ffwd.Image()
	for mi, m := range imA.Modules() {
		for a := m.DataBase; a < m.DataEnd; a += 8 {
			if va, vb := imA.Memory().Read64(a), imB.Memory().Read64(a); va != vb {
				t.Fatalf("memory diverged at %#x in %s: %#x vs %#x", a, imB.Modules()[mi].Name, va, vb)
			}
		}
	}
	if imA.Resolutions() != imB.Resolutions() {
		t.Fatalf("resolutions %d vs %d", imA.Resolutions(), imB.Resolutions())
	}
}

// TestChurnBitIdentity extends block replay's core contract across a
// mid-stream unload/reload (with demand paging on): the trace Run
// recompiles after churn must replay with counters, trampoline
// histograms and memory bit-identical to single steps.
func TestChurnBitIdentity(t *testing.T) {
	cfg := EnhancedConfig()
	cfg.Seed = 3
	ref := New(churnImage(t), cfg)
	compiled := New(churnImage(t), cfg)
	single := func() {
		t.Helper()
		if err := ref.SetProgram(stepOnly(ref.Image(), cfg.L1I.LineBytes)); err != nil {
			t.Fatal(err)
		}
	}

	run := func(label string) {
		t.Helper()
		rr, errR := ref.RunSymbol("main", 0)
		rc, errC := compiled.RunSymbol("main", 0)
		if errR != nil || errC != nil {
			t.Fatalf("%s: %v / %v", label, errR, errC)
		}
		if rr != rc {
			t.Fatalf("%s: results %+v vs %+v", label, rr, rc)
		}
		comparePair(t, label, ref, compiled)
	}
	single()
	run("pre-churn")

	churnOnce(t, ref, 12, true)
	churnOnce(t, compiled, 12, true)
	single()
	run("post-churn run 1")
	run("post-churn run 2")
	if ref.PageFaults() == 0 {
		t.Error("demand-loaded reload took no page faults")
	}
	if ref.PageFaults() != compiled.PageFaults() {
		t.Errorf("page faults diverged: single-step %d, blocks %d", ref.PageFaults(), compiled.PageFaults())
	}
}

// TestDemandPagingCharges: first touch of each demand-mapped page
// faults exactly once, at exactly PageFaultPenalty cycles — a
// demand-loaded run costs the eager-loaded run plus faults×penalty,
// and a repeat run faults no further.
func TestDemandPagingCharges(t *testing.T) {
	mk := func(demand bool) *CPU {
		c := New(churnImage(t), DefaultConfig())
		churnOnce(t, c, 12, demand)
		return c
	}
	eager, lazy := mk(false), mk(true)

	pending := lazy.Image().DemandPending()
	if pending == 0 {
		t.Fatal("demand load left no pending pages")
	}
	re, err := eager.RunSymbol("main", 0)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := lazy.RunSymbol("main", 0)
	if err != nil {
		t.Fatal(err)
	}
	faults := lazy.PageFaults()
	if faults == 0 || int(faults) > pending {
		t.Fatalf("page faults = %d, want in (0, %d]", faults, pending)
	}
	if eager.PageFaults() != 0 {
		t.Errorf("eager run took %d page faults", eager.PageFaults())
	}
	if want := re.Cycles + faults*uint64(lazy.cfg.PageFaultPenalty); rl.Cycles != want {
		t.Errorf("demand run cost %d cycles, want eager %d + %d faults × %d penalty = %d",
			rl.Cycles, re.Cycles, faults, lazy.cfg.PageFaultPenalty, want)
	}
	if got := lazy.Image().DemandPending(); got != pending-int(faults) {
		t.Errorf("DemandPending = %d after run, want %d", got, pending-int(faults))
	}
	if _, err := lazy.RunSymbol("main", 0); err != nil {
		t.Fatal(err)
	}
	if lazy.PageFaults() != faults {
		t.Errorf("repeat run re-faulted: %d, want %d", lazy.PageFaults(), faults)
	}
}

// TestFastForwardDrainsDemandPages: a fast-forwarded stretch maps the
// pages its skipped fetches touch — silently, with no fault count or
// penalty (measurement state does not accrue while skipping) — so a
// detailed run resumed afterwards faults on none of them.
func TestFastForwardDrainsDemandPages(t *testing.T) {
	c := New(churnImage(t), DefaultConfig())
	churnOnce(t, c, 12, true)
	pending := c.Image().DemandPending()
	if err := c.FastForwardSymbol("main"); err != nil {
		t.Fatal(err)
	}
	if c.PageFaults() != 0 {
		t.Errorf("fast-forward charged %d page faults, want 0", c.PageFaults())
	}
	if got := c.Image().DemandPending(); got >= pending {
		t.Errorf("fast-forward mapped no pages: pending %d -> %d", pending, got)
	}
	if _, err := c.RunSymbol("main", 0); err != nil {
		t.Fatal(err)
	}
	if c.PageFaults() != 0 {
		t.Errorf("detailed run re-faulted on fast-forward-mapped pages: %d", c.PageFaults())
	}
}
