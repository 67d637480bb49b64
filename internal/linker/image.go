package linker

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Fork returns a copy-on-write clone of the image for a fresh
// simulated process.
//
// Everything Link produced is immutable afterwards except two things:
// the data memory (GOT words rebound by the lazy resolver, workload
// data stores, stack) and the lazy-resolution counter.  Fork therefore
// shares the modules and their code, symbol tables, dense
// trampoline index and patch statistics with the parent, forks the
// memory copy-on-write (see mem.Memory.Fork), and gives the clone a
// zeroed resolution counter.  The clone's initial memory contents —
// including the lazily-initialised GOT — are bit-identical to a fresh
// Link of the same inputs, which is what lets internal/pool hand
// pooled images to jobs without perturbing any simulated counter.
//
// Fork is not safe to call concurrently with other operations on the
// parent image (the first fork freezes the parent's written pages);
// callers must serialise forks of a shared master.  Forked clones are
// fully independent of each other and of the parent afterwards.
func (im *Image) Fork() *Image {
	clone := *im
	clone.memory = im.memory.Fork()
	clone.resolutions = 0
	// Runtime loading (dynload.go) mutates the index structures the
	// comment above calls immutable.  Mark both sides shared so the
	// first Load/Unload on either deep-copies its index view
	// (privatize) instead of corrupting the other's.
	im.shared = true
	clone.shared = true
	clone.runtimeWrite = nil
	if len(im.demandPages) > 0 {
		clone.demandPages = make(map[uint64]struct{}, len(im.demandPages))
		for pn := range im.demandPages {
			clone.demandPages[pn] = struct{}{}
		}
	}
	return &clone
}

// Generation counts runtime Load/Unload mutations of the image.  A
// compiled Program captures the generation it was built against, and a
// CPU recompiles at its next run once the generation has moved (the
// old trace would branch into freed or rewritten code).  Freshly linked
// images are generation 0.
func (im *Image) Generation() uint64 { return im.generation }

// SharedBytes returns the size in bytes of the image's copy-on-write
// page layer plus its privately written pages: the resident data
// footprint one pooled master contributes.  Its code is counted apart,
// by CodeBytes.
func (im *Image) SharedBytes() uint64 {
	return uint64(im.memory.PagesShared())*mem.PageSize + im.memory.FootprintBytes()
}

// CodeBytes returns the size in bytes of the live modules' code
// slices, which the image shares with every fork.
func (im *Image) CodeBytes() uint64 {
	var n uint64
	for _, m := range im.live {
		n += uint64(cap(m.code)) * placedBytes
	}
	return n
}

// InstrAt returns the decoded instruction at pc: the live module whose
// code range holds pc, then a binary search of its code.  The
// instruction is shared with every fork; the caller must not mutate
// it.
func (im *Image) InstrAt(pc uint64) (*isa.Instr, bool) {
	for _, m := range im.live {
		if pc >= m.Base && pc < m.codeEnd() {
			i, ok := slices.BinarySearchFunc(m.code, pc, func(p Placed, pc uint64) int {
				return cmp.Compare(p.PC, pc)
			})
			if !ok {
				return nil, false
			}
			return &m.code[i].Instr, true
		}
	}
	return nil, false
}

// Memory returns the image's data memory (GOT, data regions, stack).
func (im *Image) Memory() *mem.Memory { return im.memory }

// Modules returns the linked modules in load order (executable first),
// unloaded ones included.
func (im *Image) Modules() []*Module { return im.modules }

// CodeModules returns the live modules in ascending base-address
// order.  Their ranges are disjoint and each module's code ascends by
// PC, so concatenating their Code slices gives the image's code in PC
// order: the trace compiler's input.  Forks share the modules, and
// churn replaces the modules it touches, so the slice also identifies
// the code a Program was compiled from.  The caller must not mutate
// it.
func (im *Image) CodeModules() []*Module { return im.live }

// Symbol returns the resolved address of a global function symbol.
func (im *Image) Symbol(name string) (uint64, bool) {
	a, ok := im.symbols[name]
	return a, ok
}

// FuncName returns the "module:function" name of the function starting
// at addr, or "".
func (im *Image) FuncName(addr uint64) string { return im.funcName[addr] }

// StackTop returns the initial stack pointer.
func (im *Image) StackTop() uint64 { return im.stackTop }

// Options returns the link options used.
func (im *Image) Options() Options { return im.opts }

// Patch returns the call-site patching statistics (BindPatched only).
func (im *Image) Patch() PatchStats { return im.patch }

// InPLT reports whether addr falls inside any module's PLT section —
// the test that classifies a retired instruction as trampoline code
// (Table 2's "instructions in trampoline PKI").
func (im *Image) InPLT(addr uint64) bool {
	for _, m := range im.live {
		if m.PLTBase != 0 && addr >= m.PLTBase && addr < m.PLTEnd {
			return true
		}
	}
	return false
}

// TrampolineSym returns the imported symbol whose trampoline starts at
// addr ("" if addr is not a PLT slot start).  Distinct-trampoline
// counting (Table 3) keys on these addresses.
func (im *Image) TrampolineSym(addr uint64) string {
	for _, m := range im.live {
		if m.PLTBase == 0 || addr < m.PLTSlotAddr(0) {
			continue
		}
		off := addr - m.PLTSlotAddr(0)
		if i := off / PLTSlotBytes; off%PLTSlotBytes == 0 && i < uint64(len(m.imports)) {
			return m.imports[i]
		}
	}
	return ""
}

// Trampolines returns the total number of PLT slots in the live
// modules (excluding the PLT0 stubs).
func (im *Image) Trampolines() int {
	n := 0
	for _, m := range im.live {
		if m.PLTBase != 0 {
			n += len(m.imports)
		}
	}
	return n
}

// pltSlotRange is one module's contiguous PLT slot region in the
// dense trampoline numbering.
type pltSlotRange struct {
	lo, hi uint64 // [first slot, one past last slot)
	first  int    // dense index of the slot at lo
}

// TrampolineIndex returns the dense index (0..Trampolines()-1) of the
// PLT trampoline starting at addr, or -1 if addr is not a slot start.
// It is the CPU's per-retired-call classification test: a short scan
// over per-module slot ranges plus slot arithmetic, with no map probe
// and no allocation.
func (im *Image) TrampolineIndex(addr uint64) int {
	for i := range im.pltSlotRanges {
		r := &im.pltSlotRanges[i]
		if addr >= r.lo && addr < r.hi {
			if (addr-r.lo)%PLTSlotBytes != 0 {
				return -1 // inside a slot, not its first instruction
			}
			return r.first + int((addr-r.lo)/PLTSlotBytes)
		}
	}
	return -1
}

// TrampolineAddrs returns the slot address for each dense trampoline
// index, in index order.  The caller must not mutate the slice.
func (im *Image) TrampolineAddrs() []uint64 { return im.trampAddrs }

// ModuleOf returns the module whose text/PLT/data span contains addr,
// or nil.
func (im *Image) ModuleOf(addr uint64) *Module {
	for _, m := range im.live {
		if addr >= m.Base && addr < m.DataEnd {
			return m
		}
	}
	return nil
}

// LinkerData returns the base and size of the dynamic linker's own
// tables (symbol hashes, link maps).  The lazy resolver walks this
// region, giving resolution a realistic data-cache footprint.
func (im *Image) LinkerData() (base, size uint64) {
	return im.linkerDataBase, im.linkerDataSize
}

// Resolutions returns the number of lazy symbol resolutions performed.
func (im *Image) Resolutions() uint64 { return im.resolutions }

// Resolve performs a lazy binding: given the module ID and relocation
// index that the PLT glue pushed, it returns the GOT slot to update
// and the resolved function address.  The CPU performs the actual GOT
// store (so that the write flows through the D-cache and the ABTB's
// store snoop) and then jumps to the function.
func (im *Image) Resolve(modID, relocIdx uint64) (gotAddr, funcAddr uint64, err error) {
	if modID >= uint64(len(im.modules)) {
		return 0, 0, fmt.Errorf("linker: resolve with bad module id %d", modID)
	}
	m := im.modules[modID]
	if m.dead {
		return 0, 0, fmt.Errorf("linker: resolve through unloaded module %s", m.Name)
	}
	if relocIdx >= uint64(len(m.imports)) {
		return 0, 0, fmt.Errorf("linker: resolve %s with bad reloc %d", m.Name, relocIdx)
	}
	sym := m.imports[relocIdx]
	funcAddr, ok := im.symbols[sym]
	if !ok {
		return 0, 0, fmt.Errorf("linker: resolve of undefined symbol %q", sym)
	}
	im.resolutions++
	return m.GOTSlotAddr(int(relocIdx)), funcAddr, nil
}

// BindAll eagerly resolves every GOT slot to its final function
// address, as the lazy resolver would have after a long-running
// process touched every import.  The paper measures multi-hour steady
// state ("we run the experiment for 10 hours at close to peak load"),
// where resolution traffic is long finished; measurement harnesses
// call BindAll before their windows so that mid-window resolutions do
// not flush the ABTB.  It returns the number of slots bound and is a
// no-op for images whose GOT is already final (eager, patched) or
// absent (static).
func (im *Image) BindAll() int {
	n := 0
	for _, m := range im.modules {
		if m.dead {
			continue
		}
		for i, sym := range m.imports {
			addr := im.symbols[sym]
			slot := m.GOTSlotAddr(i)
			if im.memory.Read64(slot) != addr {
				im.memory.Write64(slot, addr)
				n++
			}
		}
	}
	return n
}

// TextBytes returns the total text+PLT footprint of the image in
// bytes, a code-working-set indicator used by the workload generators
// to check that synthetic applications exceed the L1I capacity the
// way the paper's applications do.
func (im *Image) TextBytes() uint64 {
	var n uint64
	for _, m := range im.live {
		n += m.codeEnd() - m.Base
	}
	return n
}
