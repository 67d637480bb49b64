package linker

import (
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/objfile"
)

// libxGen builds a replacement generation of testProgram's libx: same
// name, same exported symbol, same import, body weight set by extraALU.
func libxGen(extraALU int) *objfile.Object {
	o := objfile.New("libx")
	o.NewFunc("parse").ALU(extraALU).Call("write").Ret()
	return o
}

func TestUnloadTombstonesAndCleans(t *testing.T) {
	im := mustLink(t, Options{Mode: BindLazy, Seed: 5})
	im.BindAll()

	libx := im.findModule("libx")
	if libx == nil {
		t.Fatal("no libx module")
	}
	app := im.Modules()[0]
	parseAddr, _ := im.Symbol("parse")

	// app's imports are [write, parse] in first-use order; after
	// BindAll slot 1 points into libx text.
	parseSlot := app.GOTSlotAddr(1)
	if got := im.Memory().Read64(parseSlot); got != parseAddr {
		t.Fatalf("pre-unload app GOT[parse] = %#x, want %#x", got, parseAddr)
	}
	libxGOT := libx.GOTSlotAddr(0) // libx imports [write]
	pltSlot := libx.PLTSlotAddr(0)

	var stores []uint64
	write := func(addr, val uint64) {
		stores = append(stores, addr)
		im.Memory().Write64(addr, val)
	}
	if err := im.Unload("libx", write); err != nil {
		t.Fatal(err)
	}

	if got, want := im.Memory().Read64(parseSlot), im.lazyGOTWord(app, 1); got != want {
		t.Errorf("app GOT[parse] = %#x after unload, want lazy word %#x", got, want)
	}
	if got := im.Memory().Read64(libxGOT); got != 0 {
		t.Errorf("dead module's GOT slot = %#x, want 0", got)
	}
	if len(stores) == 0 {
		t.Error("unload wrote no GOT words through the store callback")
	}
	if _, ok := im.Symbol("parse"); ok {
		t.Error("parse still resolvable after unload")
	}
	if _, ok := im.InstrAt(parseAddr); ok {
		t.Error("libx text still decodable after unload")
	}
	if _, ok := im.InstrAt(pltSlot); ok {
		t.Error("libx PLT still decodable after unload")
	}
	if im.findModule("libx") != nil {
		t.Error("libx still live")
	}
	if !im.Modules()[libx.ID].Dead() {
		t.Error("module table entry not tombstoned")
	}
	if idx := im.TrampolineIndex(pltSlot); idx >= 0 {
		t.Errorf("TrampolineIndex(%#x) = %d after unload, want negative", pltSlot, idx)
	}
	if g := im.Generation(); g != 1 {
		t.Errorf("generation = %d after one unload, want 1", g)
	}
	// The resolver must trap rather than resolve through freed state.
	if _, _, err := im.Resolve(uint64(libx.ID), 0); err == nil {
		t.Error("Resolve through unloaded module succeeded")
	}
}

func TestUnloadErrors(t *testing.T) {
	im := mustLink(t, Options{Mode: BindLazy})
	if err := im.Unload("nope", nil); err == nil {
		t.Error("unload of unknown module succeeded")
	}
	if err := im.Unload("app", nil); err == nil {
		t.Error("unload of the executable succeeded")
	}
	for _, mode := range []BindingMode{BindStatic, BindPatched} {
		im := mustLink(t, Options{Mode: mode})
		if err := im.Unload("libx", nil); err == nil {
			t.Errorf("mode %v: unload succeeded, want unsupported", mode)
		}
		if _, err := im.Load(libxGen(1), LoadOptions{}); err == nil {
			t.Errorf("mode %v: load succeeded, want unsupported", mode)
		}
	}
}

// TestReloadReusesAddressRange also checks the code across the
// churn: Unload leaves no instruction or trampoline of the module
// visible and touches no other module's code, and a reload at the same
// base serves the new build's instructions and trampolines.
func TestReloadReusesAddressRange(t *testing.T) {
	im := mustLink(t, Options{Mode: BindLazy, Seed: 9})
	old := im.findModule("libx")
	oldBase, oldID, oldSpan := old.Base, old.ID, old.span
	oldCode := old.Code()
	parseAddr, _ := im.Symbol("parse")
	nTramp := len(im.TrampolineAddrs())
	nLive := im.Trampolines()
	slot := old.PLTSlotAddr(0)
	others := map[*Module][]Placed{}
	for _, m := range im.CodeModules() {
		if m != old {
			others[m] = m.Code()
		}
	}
	sameOthers := func(label string) {
		t.Helper()
		for m, code := range others {
			if c := m.Code(); im.Modules()[m.ID] != m || &c[0] != &code[0] || len(c) != len(code) {
				t.Errorf("%s: module %s's code replaced", label, m.Name)
			}
		}
	}

	if err := im.Unload("libx", nil); err != nil {
		t.Fatal(err)
	}
	for _, p := range oldCode {
		if in, ok := im.InstrAt(p.PC); ok {
			t.Fatalf("InstrAt(%#x) = %+v in the unloaded module", p.PC, in)
		}
	}
	if c := im.Modules()[oldID].Code(); c != nil {
		t.Errorf("unloaded module still holds %d instructions", len(c))
	}
	checkCode(t, "after unload", im)
	sameOthers("after unload")
	if sym := im.TrampolineSym(slot); sym != "" {
		t.Errorf("TrampolineSym(%#x) = %q in the unloaded module", slot, sym)
	}
	if got, want := im.Trampolines(), nLive-len(old.Imports()); got != want {
		t.Errorf("Trampolines = %d after unload, want %d", got, want)
	}

	m, err := im.Load(libxGen(1), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkCode(t, "after reload", im)
	sameOthers("after reload")
	if sym := im.TrampolineSym(m.PLTSlotAddr(0)); sym != "write" {
		t.Errorf("TrampolineSym(%#x) = %q after the reload, want the new build's \"write\"", m.PLTSlotAddr(0), sym)
	}
	if got := im.Trampolines(); got != nLive {
		t.Errorf("Trampolines = %d after the reload, want %d", got, nLive)
	}
	// parse was ALU×3, Call write, Ret; the new build is ALU, Call
	// write, Ret, so the reused address parse+4 now holds the call.
	if in, ok := im.InstrAt(parseAddr + isa.SizeALU); !ok || in.Op != isa.Call {
		t.Errorf("InstrAt(parse+4) = %+v, %v after the reload; want the new build's Call", in, ok)
	}
	if m.Base != oldBase || m.ID != oldID || m.span != oldSpan {
		t.Errorf("reload got base=%#x id=%d span=%d, want reuse of base=%#x id=%d span=%d",
			m.Base, m.ID, m.span, oldBase, oldID, oldSpan)
	}
	addr, ok := im.Symbol("parse")
	if !ok || addr < m.Base || addr >= m.TextEnd {
		t.Errorf("parse = %#x (ok=%v), want inside reloaded text [%#x,%#x)", addr, ok, m.Base, m.TextEnd)
	}
	// Reused slot addresses get fresh dense indices appended after the
	// surviving ones; old indices are never reassigned.
	if got := im.TrampolineIndex(m.PLTSlotAddr(0)); got != nTramp {
		t.Errorf("reloaded slot index = %d, want %d (appended)", got, nTramp)
	}
	if got, want := len(im.TrampolineAddrs()), nTramp+len(m.Imports()); got != want {
		t.Errorf("trampoline addrs = %d, want %d", got, want)
	}
	if g := im.Generation(); g != 2 {
		t.Errorf("generation = %d after unload+load, want 2", g)
	}
}

func TestReloadTooBigAllocatesFresh(t *testing.T) {
	im := mustLink(t, Options{Mode: BindLazy, Seed: 9})
	old := im.findModule("libx")
	oldBase, oldID := old.Base, old.ID
	if err := im.Unload("libx", nil); err != nil {
		t.Fatal(err)
	}
	m, err := im.Load(libxGen(3000), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Base == oldBase {
		t.Errorf("oversized reload reused base %#x; must not fit the old span", oldBase)
	}
	if m.Base%(1<<16) != 0 {
		t.Errorf("fresh base %#x not 64K-aligned", m.Base)
	}
	if m.ID == oldID {
		t.Error("oversized reload reused the dead module's ID")
	}
	if !im.Modules()[oldID].Dead() {
		t.Error("old reservation no longer tombstoned")
	}
}

func TestLoadErrors(t *testing.T) {
	im := mustLink(t, Options{Mode: BindLazy})
	if _, err := im.Load(libxGen(1), LoadOptions{}); err == nil || !strings.Contains(err.Error(), "already loaded") {
		t.Errorf("load over a live module: err = %v, want already-loaded", err)
	}
	bad := objfile.New("libbad")
	bad.NewFunc("badfn").Call("no_such_symbol").Ret()
	if _, err := im.Load(bad, LoadOptions{}); err == nil || !strings.Contains(err.Error(), "undefined symbol") {
		t.Errorf("load with dangling import: err = %v, want undefined symbol", err)
	}
}

func TestDemandLoadPages(t *testing.T) {
	im := mustLink(t, Options{Mode: BindLazy})
	if err := im.Unload("libx", nil); err != nil {
		t.Fatal(err)
	}
	m, err := im.Load(libxGen(1), LoadOptions{Demand: true})
	if err != nil {
		t.Fatal(err)
	}
	wantPages := int((m.PLTEnd-1)>>mem.PageShift - m.Base>>mem.PageShift + 1)
	if got := im.DemandPending(); got != wantPages {
		t.Errorf("DemandPending = %d, want %d", got, wantPages)
	}
	if !im.HasDemandPages() {
		t.Error("HasDemandPages = false after demand load")
	}
	pn := m.Base >> mem.PageShift
	if !im.TouchPage(pn) {
		t.Error("first touch did not fault")
	}
	if im.TouchPage(pn) {
		t.Error("second touch faulted again")
	}
	if got := im.DemandPending(); got != wantPages-1 {
		t.Errorf("DemandPending = %d after one touch, want %d", got, wantPages-1)
	}
	// A later unload clears the module's pending pages.
	if err := im.Unload("libx", nil); err != nil {
		t.Fatal(err)
	}
	if im.HasDemandPages() {
		t.Errorf("DemandPending = %d after unload, want 0", im.DemandPending())
	}
}
