package linker

import (
	"slices"
	"testing"
)

// TestForkSharesLinkProduct: a fork reads the identical link product —
// same symbols, same instructions, same initial GOT words — without
// re-linking.
func TestForkSharesLinkProduct(t *testing.T) {
	master := mustLink(t, Options{Mode: BindLazy, Seed: 3})
	fork := master.Fork()

	if fork.StackTop() != master.StackTop() {
		t.Errorf("fork stack top %#x != master %#x", fork.StackTop(), master.StackTop())
	}
	for _, sym := range []string{"main", "write", "parse"} {
		ma, _ := master.Symbol(sym)
		fa, ok := fork.Symbol(sym)
		if !ok || fa != ma {
			t.Errorf("fork symbol %q = %#x, master %#x", sym, fa, ma)
		}
	}
	m := master.Modules()[0]
	for i := range m.Imports() {
		slot := m.GOTSlotAddr(i)
		if got, want := fork.Memory().Read64(slot), master.Memory().Read64(slot); got != want {
			t.Errorf("fork GOT slot %d = %#x, master %#x", i, got, want)
		}
	}
	in, ok := fork.InstrAt(m.PLTSlotAddr(0))
	if !ok || !in.PLT {
		t.Error("fork lost the instruction index (PLT slot not decodable)")
	}
}

// TestForkIsolatesMutableState: GOT rebinding (BindAll) and the
// resolution counter in one fork never reach the master or a sibling —
// the copy-on-write invariant pooled jobs depend on.
func TestForkIsolatesMutableState(t *testing.T) {
	master := mustLink(t, Options{Mode: BindLazy, Seed: 3})
	a := master.Fork()
	b := master.Fork()

	m := master.Modules()[0]
	slot := m.GOTSlotAddr(0)
	lazyWord := master.Memory().Read64(slot)

	if n := a.BindAll(); n == 0 {
		t.Fatal("BindAll bound nothing; test needs a lazy import")
	}
	if got := master.Memory().Read64(slot); got != lazyWord {
		t.Errorf("BindAll in fork rewrote master GOT: %#x, want lazy %#x", got, lazyWord)
	}
	if got := b.Memory().Read64(slot); got != lazyWord {
		t.Errorf("BindAll in fork rewrote sibling GOT: %#x, want lazy %#x", got, lazyWord)
	}

	if _, _, err := a.Resolve(0, 0); err != nil {
		t.Fatal(err)
	}
	if a.Resolutions() != 1 || master.Resolutions() != 0 || b.Resolutions() != 0 {
		t.Errorf("resolution counters not private: a=%d master=%d b=%d",
			a.Resolutions(), master.Resolutions(), b.Resolutions())
	}
}

// TestForkChurnIsolation: runtime Load/Unload in one fork privatizes
// every shared index first, so churned code, symbols, module
// tombstones and demand-page state never leak into the master or a
// sibling, the master's code slices stay shared and untouched, and the
// master remains fit to mint further forks.
func TestForkChurnIsolation(t *testing.T) {
	master := mustLink(t, Options{Mode: BindLazy, Seed: 3})
	a := master.Fork()
	b := master.Fork()
	code := map[*Module][]Placed{}
	for _, m := range master.CodeModules() {
		code[m] = slices.Clone(m.Code())
	}

	parseAddr, _ := master.Symbol("parse")
	app := master.Modules()[0]
	parseSlot := app.GOTSlotAddr(1) // app imports [write, parse]
	lazyWord := master.Memory().Read64(parseSlot)
	libxID := master.findModule("libx").ID

	if n := a.BindAll(); n == 0 {
		t.Fatal("BindAll bound nothing")
	}
	if err := a.Unload("libx", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Load(libxGen(1), LoadOptions{Demand: true}); err != nil {
		t.Fatal(err)
	}

	for name, im := range map[string]*Image{"master": master, "sibling": b} {
		if addr, ok := im.Symbol("parse"); !ok || addr != parseAddr {
			t.Errorf("%s: parse = %#x (ok=%v), want untouched %#x", name, addr, ok, parseAddr)
		}
		if _, ok := im.InstrAt(parseAddr); !ok {
			t.Errorf("%s: lost libx text to a fork's churn", name)
		}
		if im.Modules()[libxID].Dead() {
			t.Errorf("%s: module tombstone leaked from fork", name)
		}
		if got := im.Memory().Read64(parseSlot); got != lazyWord {
			t.Errorf("%s: GOT[parse] = %#x, want untouched lazy word %#x", name, got, lazyWord)
		}
		if im.HasDemandPages() {
			t.Errorf("%s: demand pages leaked from fork", name)
		}
		if g := im.Generation(); g != 0 {
			t.Errorf("%s: generation = %d, want 0", name, g)
		}
	}
	for name, im := range map[string]*Image{"master": master, "sibling": b} {
		if len(im.CodeModules()) != len(code) {
			t.Fatalf("%s: %d live modules, want %d", name, len(im.CodeModules()), len(code))
		}
		for _, m := range im.CodeModules() {
			want, ok := code[m]
			if !ok {
				t.Fatalf("%s: module %s replaced", name, m.Name)
			}
			if c := m.Code(); &c[0] != &master.Modules()[m.ID].Code()[0] || !slices.Equal(c, want) {
				t.Errorf("%s: module %s's code not the master's untouched slice", name, m.Name)
			}
		}
		checkCode(t, name, im)
	}
	if m := a.findModule("libx"); m == nil || code[m] != nil {
		t.Error("churned fork's libx is not a new module")
	}
	checkCode(t, "churned fork", a)
	if a.Generation() != 2 {
		t.Errorf("churned fork generation = %d, want 2", a.Generation())
	}
	if !a.HasDemandPages() {
		t.Error("churned fork lost its demand pages")
	}

	// The master still mints clean forks after a sibling churned.
	c := master.Fork()
	if addr, ok := c.Symbol("parse"); !ok || addr != parseAddr {
		t.Errorf("post-churn fork: parse = %#x (ok=%v), want %#x", addr, ok, parseAddr)
	}
	// And a second fork can churn independently of the first.
	if err := c.Unload("libx", nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Symbol("parse"); !ok {
		t.Error("fork c's unload removed fork a's reloaded symbol")
	}
}

// TestForkMatchesFreshLink: a forked image's visible memory is
// bit-identical to a fresh link of the same inputs at every GOT slot
// and pointer-initialised word.
func TestForkMatchesFreshLink(t *testing.T) {
	for _, mode := range []BindingMode{BindLazy, BindNow, BindPatched} {
		master := mustLink(t, Options{Mode: mode, Seed: 11})
		fresh := mustLink(t, Options{Mode: mode, Seed: 11})
		fork := master.Fork()
		for _, m := range fresh.Modules() {
			for i := range m.Imports() {
				slot := m.GOTSlotAddr(i)
				if got, want := fork.Memory().Read64(slot), fresh.Memory().Read64(slot); got != want {
					t.Errorf("mode %v: fork GOT %s[%d] = %#x, fresh link %#x",
						mode, m.Name, i, got, want)
				}
			}
		}
		if fork.SharedBytes() == 0 {
			t.Errorf("mode %v: SharedBytes = 0, want the COW layer counted", mode)
		}
	}
}
