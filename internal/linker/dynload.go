// Runtime dynamic loading: dlopen/dlclose against a live image.
//
// Load links one additional library into an already-running image;
// Unload removes one.  Both mutate state the rest of the simulator
// caches aggressively, so they form the correctness spine of the churn
// scenario:
//
//   - Every GOT word they write goes through a caller-supplied store
//     callback (normally cpu.CPU.LinkerStore), so the write flows
//     through the D-cache and the ABTB's store snoop exactly like a
//     retired store.  A Bloom hit on a tombstoned or re-initialised
//     GOT slot forces the whole-table flush the paper's §3.3
//     correctness argument relies on — stale trampoline->target
//     mappings for freed (or about-to-be-reused) code cannot survive,
//     because every ABTB entry's GOT address was inserted into the
//     Bloom alongside it.
//   - Every mutation bumps the image generation, which makes any
//     compiled Program built against the old code stale: a CPU
//     recompiles at its next run (see cpu.Compile).  Load adds a new
//     module with its own code slice and Unload drops the module's
//     slice; neither edits another module's code.
//   - Unload tombstones other modules' GOT slots that point into the
//     dead module back to their lazy re-entry values, so the next call
//     re-resolves through PLT0 instead of branching into freed code.
//     (Function pointers stored in data regions are not rewritten —
//     the same dangling-pointer hazard real dlclose has.)
//
// Address ranges are reused deterministically: reloading a library
// with the same name reuses its previous base when the new build fits
// the reserved span, and fresh libraries come from a bump allocator
// seeded above everything the initial link placed.  No randomness is
// involved at runtime, keeping churned runs bit-identical across
// pooled and unpooled images.
//
// Demand-driven loading (per Mururu et al., "Binary Debloating via
// Demand Driven Loading") is modelled on top: Load with Demand leaves
// the new module's text+PLT pages unmapped, and the CPU charges a page
// fault the first time each page is fetched (Image.TouchPage).
package linker

import (
	"fmt"
	"slices"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/objfile"
)

// StoreFunc performs one 64-bit store on behalf of the runtime linker.
// cpu.CPU.LinkerStore is the production implementation; a nil StoreFunc
// writes memory directly (no cache or ABTB effects).
type StoreFunc func(addr, val uint64)

// LoadOptions configures a runtime library load.
type LoadOptions struct {
	// Demand maps the library's text+PLT pages lazily: each page
	// faults on first instruction fetch instead of being resident at
	// load time.
	Demand bool

	// Write routes the load's GOT and data-relocation stores (nil:
	// direct memory writes).
	Write StoreFunc
}

// churnSupported rejects runtime loading in the modes that cannot
// express it: static images have no GOT to rebind, and patched images
// call freed code directly with no indirection left to tombstone.
func (im *Image) churnSupported(op string) error {
	switch im.opts.Mode {
	case BindStatic:
		return fmt.Errorf("linker: %s requires a GOT (static link has none)", op)
	case BindPatched:
		return fmt.Errorf("linker: %s unsupported for patched images (direct call sites cannot be tombstoned)", op)
	}
	return nil
}

// privatize copies the index structures Fork shares between a master
// image and its clones, so a churn mutation on this image cannot
// corrupt siblings.  Module records and their code are immutable once
// published (churn replaces whole table slots, never mutates a module
// in place), so only the containers are copied: the module tables and
// symbol maps, never an instruction.
func (im *Image) privatize() {
	if !im.shared {
		return
	}
	im.shared = false

	im.modules = slices.Clone(im.modules)
	im.live = slices.Clone(im.live)
	im.pltSlotRanges = append([]pltSlotRange(nil), im.pltSlotRanges...)
	im.trampAddrs = append([]uint64(nil), im.trampAddrs...)

	symbols := make(map[string]uint64, len(im.symbols))
	for s, a := range im.symbols {
		symbols[s] = a
	}
	im.symbols = symbols

	funcName := make(map[uint64]string, len(im.funcName))
	for a, s := range im.funcName {
		funcName[a] = s
	}
	im.funcName = funcName
}

// lazyGOTWord returns import slot i's lazy re-entry value: the address
// the GOT must hold for the next call through the slot to fall into
// the resolver (x86: the slot's push; ARM: the per-import stub).
func (im *Image) lazyGOTWord(m *Module, i int) uint64 {
	if im.opts.PLT == PLTARM {
		stubBase := m.PLTBase + uint64(len(m.imports)+1)*PLTSlotBytes
		return stubBase + uint64(i)*armStubBytes
	}
	return m.PLTSlotAddr(i) + isa.SizeJmpMem
}

// findModule returns the live module with the given name, or nil.
func (im *Image) findModule(name string) *Module {
	for _, m := range im.modules {
		if !m.dead && m.Name == name {
			return m
		}
	}
	return nil
}

// Unload removes a library from the live image, as dlclose would:
// its code and symbols disappear, its PLT slots leave the
// trampoline index, and every live GOT slot still pointing into its
// text is tombstoned back to the lazy re-entry value through the
// store callback (so a snooping ABTB flushes any mapping it cached
// through those slots).  The module's address range stays reserved
// and is reused by a later Load of the same name.  The executable
// (module 0) cannot be unloaded.
func (im *Image) Unload(name string, write StoreFunc) error {
	if err := im.churnSupported("unload"); err != nil {
		return err
	}
	m := im.findModule(name)
	if m == nil {
		return fmt.Errorf("linker: unload of %q: no such module", name)
	}
	if m.ID == 0 {
		return fmt.Errorf("linker: cannot unload the executable %q", name)
	}

	im.privatize()
	im.generation++
	im.runtimeWrite = write
	defer func() { im.runtimeWrite = nil }()

	// Clear the dead module's own GOT slots.  Any ABTB entry for one
	// of its trampolines put the slot address in the Bloom when it was
	// inserted, so these stores guarantee a flush before the slot
	// addresses can be reused by a reload.
	for i := range m.imports {
		im.writeGOT(m.GOTSlotAddr(i), 0)
	}

	// Tombstone other modules' GOT slots that resolved into the dead
	// module's text, in deterministic module/slot order.
	for _, m2 := range im.modules {
		if m2.dead || m2 == m {
			continue
		}
		for i := range m2.imports {
			slot := m2.GOTSlotAddr(i)
			cur := im.memory.Read64(slot)
			if cur >= m.Base && cur < m.TextEnd {
				im.writeGOT(slot, im.lazyGOTWord(m2, i))
			}
		}
	}

	// Drop the module's pending demand pages; its text and PLT share
	// no page with data or other modules.  Its code leaves with the
	// module (below).
	for pn := m.Base >> mem.PageShift; pn <= (m.PLTEnd-1)>>mem.PageShift; pn++ {
		delete(im.demandPages, pn)
	}

	// Drop its symbols and function names.
	for sym, addr := range im.symbols {
		if addr >= m.Base && addr < m.TextEnd {
			delete(im.symbols, sym)
		}
	}
	for addr := range im.funcName {
		if addr >= m.Base && addr < m.TextEnd {
			delete(im.funcName, addr)
		}
	}

	// Remove its slot range from the dense trampoline index.  The
	// dense indices themselves are never reassigned, so per-trampoline
	// counters stay valid across churn.
	if len(m.imports) > 0 {
		lo := m.PLTSlotAddr(0)
		for i, r := range im.pltSlotRanges {
			if r.lo == lo {
				im.pltSlotRanges = append(im.pltSlotRanges[:i:i], im.pltSlotRanges[i+1:]...)
				break
			}
		}
	}

	// Tombstone the module table entry, preserving geometry for span
	// reuse, and drop its code.  The shared entry is never mutated in
	// place.
	dead := *m
	dead.dead = true
	dead.code = nil
	im.modules[m.ID] = &dead
	im.live = slices.DeleteFunc(im.live, func(x *Module) bool { return x == m })
	return nil
}

// Load links one additional library into the live image, as dlopen
// would.  If a module of the same name was unloaded and the new build
// fits its reserved span, the old base address (and module ID) is
// reused — the scenario that makes stale caches dangerous.  GOT
// initialisation and data relocations flow through opts.Write.  With
// opts.Demand the module's text+PLT pages are left unmapped and fault
// in on first fetch.
func (im *Image) Load(o *objfile.Object, opts LoadOptions) (*Module, error) {
	if err := im.churnSupported("load"); err != nil {
		return nil, err
	}
	if err := o.Validate(); err != nil {
		return nil, fmt.Errorf("linker: %w", err)
	}
	if im.findModule(o.Name()) != nil {
		return nil, fmt.Errorf("linker: load of %q: already loaded", o.Name())
	}

	im.privatize()
	im.generation++
	im.runtimeWrite = opts.Write
	defer func() { im.runtimeWrite = nil }()

	m := &Module{
		Name:       o.Name(),
		regionAddr: make(map[string]uint64),
		funcAddr:   make(map[string]uint64),
		imports:    o.Externals(),
	}
	size := moduleSize(o, true, len(m.imports))

	// Reuse a dead module's reservation when the new build fits.
	reuse := -1
	for _, old := range im.modules {
		if old.dead && old.Name == o.Name() && size <= old.span {
			reuse = old.ID
			break
		}
	}
	if reuse >= 0 {
		old := im.modules[reuse]
		m.ID = old.ID
		m.Base = old.Base
		m.span = old.span
	} else {
		m.ID = len(im.modules)
		m.Base = im.allocBase(size)
		m.span = size
	}
	placeModule(m, o, true, im.opts.PLT == PLTARM)

	// Register symbols (first definition wins, as at link time).
	for _, f := range o.Funcs() {
		addr := m.funcAddr[f.Name]
		if _, dup := im.symbols[f.Name]; !dup {
			im.symbols[f.Name] = addr
		}
		im.funcName[addr] = o.Name() + ":" + f.Name
	}
	for _, ifn := range o.IFuncs() {
		v := im.opts.IFuncLevel
		if v >= len(ifn.Variants) {
			v = len(ifn.Variants) - 1
		}
		if v < 0 {
			v = 0
		}
		if _, dup := im.symbols[ifn.Name]; !dup {
			im.symbols[ifn.Name] = m.funcAddr[ifn.Variants[v]]
		}
	}
	for _, sym := range m.imports {
		if _, ok := im.symbols[sym]; !ok {
			return nil, fmt.Errorf("linker: %s: undefined symbol %q", m.Name, sym)
		}
	}

	if reuse >= 0 {
		im.modules[reuse] = m
	} else {
		im.modules = append(im.modules, m)
	}
	im.addLive(m)

	if err := im.emitModule(m, o); err != nil {
		return nil, err
	}
	for _, pi := range o.PtrInits() {
		target, ok := im.symbols[pi.Sym]
		if !ok {
			return nil, fmt.Errorf("linker: %s: undefined symbol %q in pointer init", o.Name(), pi.Sym)
		}
		im.writeGOT(m.regionAddr[pi.Region]+pi.Off, target)
	}

	// Extend the dense trampoline index with fresh indices (reused
	// slot addresses get new counters; TrampolineIndex finds only the
	// live range because Unload removed the dead one).
	if len(m.imports) > 0 {
		im.pltSlotRanges = append(im.pltSlotRanges, pltSlotRange{
			lo:    m.PLTSlotAddr(0),
			hi:    m.PLTSlotAddr(len(m.imports)-1) + PLTSlotBytes,
			first: len(im.trampAddrs),
		})
		for i := range m.imports {
			im.trampAddrs = append(im.trampAddrs, m.PLTSlotAddr(i))
		}
	}

	if opts.Demand {
		if im.demandPages == nil {
			im.demandPages = make(map[uint64]struct{})
		}
		for pn := m.Base >> mem.PageShift; pn <= (m.PLTEnd-1)>>mem.PageShift; pn++ {
			im.demandPages[pn] = struct{}{}
		}
	}
	return m, nil
}

// allocBase reserves a fresh, deterministic base address for a library
// loaded at runtime into new address space: a bump allocator starting
// above everything the initial link placed (no randomness, so churned
// runs stay bit-identical across forks).
func (im *Image) allocBase(size uint64) uint64 {
	const libAlign = 1 << 16
	if im.dynNext == 0 {
		top := im.linkerDataBase + im.linkerDataSize
		for _, m := range im.modules {
			if m.DataEnd > top {
				top = m.DataEnd
			}
		}
		im.dynNext = align(top, libAlign)
	}
	base := im.dynNext
	im.dynNext = align(base+size, libAlign)
	return base
}

// HasDemandPages reports whether any demand-loaded pages are still
// unmapped.  The CPU checks this once per run to arm its fetch-side
// fault accounting.
func (im *Image) HasDemandPages() bool { return len(im.demandPages) > 0 }

// DemandPending returns the number of demand-loaded pages awaiting
// their first touch.
func (im *Image) DemandPending() int { return len(im.demandPages) }

// TouchPage records an instruction fetch from page pn (a page number),
// mapping the page if it was demand-pending and reporting whether this
// touch faulted.
func (im *Image) TouchPage(pn uint64) bool {
	if _, pending := im.demandPages[pn]; pending {
		delete(im.demandPages, pn)
		return true
	}
	return false
}
