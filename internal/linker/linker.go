// Package linker turns relocatable objects into an executable memory
// image, implementing all four binding modes the evaluation compares:
//
//   - BindLazy: classic ELF dynamic linking.  Every module gets a PLT
//     (16-byte slots, x86-64 psABI layout) and a GOT; GOT slots
//     initially point back into the PLT so the first call falls into
//     the dynamic resolver, which binds the symbol, stores the real
//     address into the GOT, and jumps to the function (§2).
//   - BindNow: eager binding (LD_BIND_NOW).  GOT slots hold final
//     addresses at load time; trampolines still execute on every call.
//   - BindStatic: static linking.  Calls to external symbols are
//     direct; no PLT or GOT exists.  This is the paper's performance
//     upper bound.
//   - BindPatched: the paper's software emulation of the proposed
//     hardware (§4.3).  The image is laid out exactly like BindLazy
//     (PLT and GOT present, libraries forced within 32-bit reach,
//     ASLR off), but every call site that targeted a PLT slot is
//     patched to call the function directly.  The linker records
//     which text pages were written, feeding the §5.5 copy-on-write
//     memory accounting.
//
// The linked Image holds decoded instructions by virtual address, the
// initialised data memory (GOT contents, function-pointer slots), the
// module map (text/PLT/GOT ranges), and the lazy-binding resolver.
package linker

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/objfile"
)

// BindingMode selects how external symbols are bound.
type BindingMode int

// Binding modes.
const (
	BindLazy BindingMode = iota
	BindNow
	BindStatic
	BindPatched
)

var modeNames = map[BindingMode]string{
	BindLazy:    "lazy",
	BindNow:     "now",
	BindStatic:  "static",
	BindPatched: "patched",
}

// String returns the mode name.
func (m BindingMode) String() string {
	if s, ok := modeNames[m]; ok {
		return s
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Options configures a link.
type Options struct {
	Mode BindingMode

	// ASLR randomises library bases and the stack.  BindPatched
	// forces it off, as the paper's evaluation did (§4.3).
	ASLR bool

	// Seed drives layout randomisation.
	Seed uint64

	// IFuncLevel is the simulated hardware capability level used to
	// select GNU indirect-function implementations at load time
	// (§2.4.1): variant min(IFuncLevel, len(variants)-1) is chosen.
	IFuncLevel int

	// PLT selects the trampoline flavour (paper Fig. 2): x86-64's
	// single `jmp *(got)` or ARM's two address-forming adds followed
	// by `ldr pc, [got]`.  The ABTB needs PatternWindow >= 2 to learn
	// ARM trampolines.
	PLT PLTStyle
}

// PLTStyle selects the trampoline instruction sequence.
type PLTStyle int

// Trampoline flavours (paper Figure 2).
const (
	PLTx86 PLTStyle = iota // jmp *(got); push reloc; jmp plt0
	PLTARM                 // add; add; ldr pc, [got]  (+ lazy stub)
)

// String returns the style name.
func (p PLTStyle) String() string {
	if p == PLTARM {
		return "arm"
	}
	return "x86"
}

// PLT geometry: 16-byte slots (the x86-64 psABI layout; ARM entries
// are 12 bytes but keep the same 16-byte pitch here for uniform slot
// arithmetic), slot 0 is the common resolver stub.  ARM lazy stubs of
// 12 bytes each follow the slots.
const (
	PLTSlotBytes = 16
	armStubBytes = 12
	gotReserved  = 3 // got[0..2]: link map, resolver, spare
)

// Module describes one linked module's address ranges.
type Module struct {
	Name string
	ID   int

	Base     uint64 // text start
	TextEnd  uint64
	PLTBase  uint64 // 0 when no PLT (static mode)
	PLTEnd   uint64
	GOTBase  uint64
	GOTEnd   uint64
	DataBase uint64
	DataEnd  uint64

	imports    []string          // symbol per PLT slot, in first-use order
	regionAddr map[string]uint64 // data region name -> address
	funcAddr   map[string]uint64 // local function -> entry address

	// span is the virtual size reserved for the module at placement
	// (moduleSize at link or load time).  Runtime reloads of a module
	// with the same name reuse its base address when the new build
	// fits the reserved span (see Image.Load).
	span uint64

	// dead marks a module removed by Image.Unload.  The entry stays in
	// the module table (PLT0 pushes encode module IDs) but resolves,
	// range queries and BindAll skip it.
	dead bool
}

// Dead reports whether the module has been unloaded.
func (m *Module) Dead() bool { return m.dead }

// PLTSlotAddr returns the address of import slot i's trampoline (the
// JmpMem instruction).
func (m *Module) PLTSlotAddr(i int) uint64 {
	return m.PLTBase + uint64(i+1)*PLTSlotBytes
}

// GOTSlotAddr returns the address of import slot i's GOT entry.
func (m *Module) GOTSlotAddr(i int) uint64 {
	return m.GOTBase + uint64(gotReserved+i)*8
}

// Imports returns the module's imported symbols in PLT order.
func (m *Module) Imports() []string { return m.imports }

// PatchStats summarises the call-site patching a BindPatched link
// performed — the input to the §5.5 memory-overhead analysis.
type PatchStats struct {
	CallSites     int            // call instructions rewritten
	PagesTouched  int            // distinct text pages written
	PagesByModule map[string]int // per-module page counts
}

// Image is a fully linked, executable program image.
type Image struct {
	opts Options

	instrs   map[uint64]*isa.Instr
	memory   *mem.Memory
	modules  []*Module
	symbols  map[string]uint64 // global function symbols
	funcName map[uint64]string

	trampolineSym map[uint64]string // PLT slot addr -> symbol it calls
	stackTop      uint64

	// Dense trampoline index, built once at the end of linking.  Each
	// module's PLT slot region maps its slots to consecutive integers,
	// so the CPU can keep per-trampoline call counts in a flat array
	// and classify a call target with a short range scan instead of a
	// map probe per retired call.
	pltSlotRanges []pltSlotRange
	trampAddrs    []uint64 // dense index -> slot address

	// Linker-internal data (ld.so's symbol tables) that the lazy
	// resolver walks; gives resolver executions a data footprint.
	linkerDataBase uint64
	linkerDataSize uint64

	patch        PatchStats
	patchedPages map[string]bool
	resolutions  uint64

	// Runtime-loading state (see dynload.go).  generation counts
	// Load/Unload mutations so cached derivations of the instruction
	// index (the compiled Program) can detect staleness.  shared marks
	// an image whose index structures are aliased with a fork; the
	// first churn operation deep-copies them (privatize).  dynNext is
	// the deterministic bump allocator for libraries loaded at runtime
	// into fresh address ranges.  runtimeWrite, when set, routes
	// linker-performed GOT/data stores through the CPU so a live ABTB
	// snoops them like any retired store.  demandPages is the set of
	// text pages mapped on demand: still unmapped, faulting on first
	// instruction fetch.
	generation   uint64
	shared       bool
	dynNext      uint64
	runtimeWrite StoreFunc
	demandPages  map[uint64]struct{}
}

// writeGOT performs a linker-side store of a GOT word (or other
// load-time data relocation): directly into memory at link time, or
// through the runtime store callback during Load/Unload so a live
// CPU's caches and ABTB observe the write.
func (im *Image) writeGOT(addr, val uint64) {
	if im.runtimeWrite != nil {
		im.runtimeWrite(addr, val)
		return
	}
	im.memory.Write64(addr, val)
}

// Link links the executable object against the given libraries.
// Symbol resolution is first-definition-wins in load order (exe
// first), as the ELF global scope behaves.
func Link(exe *objfile.Object, libs []*objfile.Object, opts Options) (*Image, error) {
	objs := append([]*objfile.Object{exe}, libs...)
	for _, o := range objs {
		if err := o.Validate(); err != nil {
			return nil, fmt.Errorf("linker: %w", err)
		}
	}
	if opts.Mode == BindPatched {
		opts.ASLR = false // the evaluation disables ASLR for patching
	}

	im := &Image{
		opts:          opts,
		instrs:        make(map[uint64]*isa.Instr),
		memory:        mem.New(),
		symbols:       make(map[string]uint64),
		funcName:      make(map[uint64]string),
		trampolineSym: make(map[uint64]string),
	}
	im.patch.PagesByModule = make(map[string]int)

	layout := mmu.NewLayout(opts.Seed, opts.ASLR, opts.Mode == BindPatched)
	im.stackTop = layout.Stack()

	// Pass 1: place every module and assign function addresses.
	withPLT := opts.Mode != BindStatic
	for id, o := range objs {
		m := &Module{
			Name:       o.Name(),
			ID:         id,
			regionAddr: make(map[string]uint64),
			funcAddr:   make(map[string]uint64),
		}
		if withPLT {
			m.imports = o.Externals()
		}
		size := moduleSize(o, withPLT, len(m.imports))
		if id == 0 {
			m.Base = layout.ExecBase()
		} else {
			m.Base = layout.NextLibrary(size)
		}
		m.span = size
		placeModule(m, o, withPLT, opts.PLT == PLTARM)
		im.modules = append(im.modules, m)

		for _, f := range o.Funcs() {
			addr := m.funcAddr[f.Name]
			if _, dup := im.symbols[f.Name]; !dup {
				im.symbols[f.Name] = addr
			}
			im.funcName[addr] = o.Name() + ":" + f.Name
		}
		// Indirect functions bind to the hardware-selected variant;
		// the ifunc resolver runs at load time (IRELATIVE semantics).
		for _, ifn := range o.IFuncs() {
			v := opts.IFuncLevel
			if v >= len(ifn.Variants) {
				v = len(ifn.Variants) - 1
			}
			if v < 0 {
				v = 0
			}
			addr := m.funcAddr[ifn.Variants[v]]
			if _, dup := im.symbols[ifn.Name]; !dup {
				im.symbols[ifn.Name] = addr
			}
		}
	}

	// Every import must resolve somewhere in the global scope, as ld
	// requires at link (or load) time.
	for _, m := range im.modules {
		for _, sym := range m.imports {
			if _, ok := im.symbols[sym]; !ok {
				return nil, fmt.Errorf("linker: %s: undefined symbol %q", m.Name, sym)
			}
		}
	}

	// The dynamic linker's own tables live above all modules.
	im.linkerDataSize = 256 << 10
	im.linkerDataBase = layout.NextLibrary(im.linkerDataSize)

	// Pass 2: materialise instructions and data.
	for id, o := range objs {
		m := im.modules[id]
		if err := im.emitModule(m, o); err != nil {
			return nil, err
		}
	}

	// Pointer initialisers (data relocations): always bound eagerly,
	// as ELF data relocations are processed at load time.
	for id, o := range objs {
		m := im.modules[id]
		for _, pi := range o.PtrInits() {
			target, ok := im.symbols[pi.Sym]
			if !ok {
				return nil, fmt.Errorf("linker: %s: undefined symbol %q in pointer init", o.Name(), pi.Sym)
			}
			im.memory.Write64(m.regionAddr[pi.Region]+pi.Off, target)
		}
	}

	im.buildTrampolineIndex()
	return im, nil
}

// buildTrampolineIndex constructs the dense trampoline index.
func (im *Image) buildTrampolineIndex() {
	// Number every PLT slot in module load order.  Slot i of a module
	// lives at PLTSlotAddr(i) = PLTBase + (i+1)*PLTSlotBytes; the slot
	// region excludes PLT0 (below) and the ARM lazy stubs (above).
	for _, m := range im.modules {
		if m.PLTBase == 0 || len(m.imports) == 0 {
			continue
		}
		lo := m.PLTSlotAddr(0)
		im.pltSlotRanges = append(im.pltSlotRanges, pltSlotRange{
			lo:    lo,
			hi:    m.PLTSlotAddr(len(m.imports)-1) + PLTSlotBytes,
			first: len(im.trampAddrs),
		})
		for i := range m.imports {
			im.trampAddrs = append(im.trampAddrs, m.PLTSlotAddr(i))
		}
	}
}

// moduleSize returns the total virtual size of a module's text+PLT+
// data span, for layout purposes.
func moduleSize(o *objfile.Object, withPLT bool, imports int) uint64 {
	// Conservative: sized for the larger (ARM) PLT flavour.
	text := uint64(0)
	for _, f := range o.Funcs() {
		text = align(text, 16)
		text += bodySize(f)
	}
	plt := uint64(0)
	if withPLT {
		plt = uint64(imports+1)*PLTSlotBytes + uint64(imports)*armStubBytes
	}
	data := uint64(gotReserved+imports) * 8
	for _, r := range o.Data() {
		data = align(data, 64)
		data += r.Size
	}
	return align(text, PLTSlotBytes) + plt + mem.PageSize + align(data, mem.PageSize) + mem.PageSize
}

// placeModule assigns all intra-module addresses.
func placeModule(m *Module, o *objfile.Object, withPLT, armPLT bool) {
	pc := m.Base
	for _, f := range o.Funcs() {
		pc = align(pc, 16)
		m.funcAddr[f.Name] = pc
		pc += bodySize(f)
	}
	m.TextEnd = pc
	if withPLT {
		m.PLTBase = align(pc, PLTSlotBytes)
		m.PLTEnd = m.PLTBase + uint64(len(m.imports)+1)*PLTSlotBytes
		if armPLT {
			// ARM lazy-binding stubs live after the main slots, one
			// 12-byte stub per import, still inside the PLT section.
			m.PLTEnd += uint64(len(m.imports)) * armStubBytes
		}
		pc = m.PLTEnd
	}
	// Data segment starts on the next page boundary (text and data
	// never share a page, as real loaders map them with different
	// permissions).
	m.DataBase = align(pc, mem.PageSize) + mem.PageSize
	m.GOTBase = m.DataBase
	m.GOTEnd = m.GOTBase + uint64(gotReserved+len(m.imports))*8
	off := m.GOTEnd
	for _, r := range o.Data() {
		off = align(off, 64)
		m.regionAddr[r.Name] = off
		off += r.Size
	}
	m.DataEnd = off
}

func bodySize(f *objfile.Func) uint64 {
	var n uint64
	for _, in := range f.Body {
		n += uint64(isa.DefaultSize(in.Op))
	}
	return n
}

func align(x, a uint64) uint64 { return (x + a - 1) &^ (a - 1) }

// emitModule materialises one module's instructions, PLT, and GOT.
func (im *Image) emitModule(m *Module, o *objfile.Object) error {
	importSlot := make(map[string]int, len(m.imports))
	for i, sym := range m.imports {
		importSlot[sym] = i
	}

	for _, f := range o.Funcs() {
		// Pre-compute each body instruction's address for branch
		// displacement resolution.
		addrs := make([]uint64, len(f.Body)+1)
		pc := m.funcAddr[f.Name]
		for i, in := range f.Body {
			addrs[i] = pc
			pc += uint64(isa.DefaultSize(in.Op))
		}
		addrs[len(f.Body)] = pc

		for i, t := range f.Body {
			in := &isa.Instr{
				Op:   t.Op,
				Size: isa.DefaultSize(t.Op),
				Bias: t.Bias,
				Span: t.Span,
				Val:  t.Val,
			}
			switch t.Op {
			case isa.Call:
				target, err := im.callTarget(m, o, importSlot, t.Sym)
				if err != nil {
					return fmt.Errorf("linker: %s:%s: %w", o.Name(), f.Name, err)
				}
				in.Target = target
				// Patched mode: a call site that would have gone
				// through the PLT was rewritten in the text.
				if im.opts.Mode == BindPatched && !o.Defines(t.Sym) {
					im.recordPatch(m, addrs[i])
				}
			case isa.Jmp, isa.JmpCond:
				in.Target = addrs[i+t.Rel]
			case isa.Load, isa.Store, isa.CallInd:
				if t.Op == isa.Store && t.GOTSym != "" {
					// Runtime re-binding of a GOT entry.
					if im.opts.Mode == BindStatic {
						return fmt.Errorf("linker: %s:%s: rebind of %q requires a GOT (static link has none)",
							o.Name(), f.Name, t.GOTSym)
					}
					slot, ok := importSlot[t.GOTSym]
					if !ok {
						return fmt.Errorf("linker: %s:%s: rebind of %q, not in import table",
							o.Name(), f.Name, t.GOTSym)
					}
					target, ok := im.symbols[t.Sym]
					if !ok {
						return fmt.Errorf("linker: %s:%s: rebind target %q undefined",
							o.Name(), f.Name, t.Sym)
					}
					in.Mem = m.GOTSlotAddr(slot)
					in.Val = target
					break
				}
				base, ok := m.regionAddr[t.Sym]
				if !ok {
					return fmt.Errorf("linker: %s:%s: unknown region %q", o.Name(), f.Name, t.Sym)
				}
				in.Mem = base + t.Off
			}
			if err := in.Validate(); err != nil {
				return fmt.Errorf("linker: %s:%s[%d]: %w", o.Name(), f.Name, i, err)
			}
			im.instrs[addrs[i]] = in
		}
	}

	if im.opts.Mode != BindStatic {
		im.emitPLT(m)
	}
	return nil
}

// callTarget resolves a call-site symbol to its final encoded target.
// Regular intra-module calls are direct; everything else — externals
// and indirect functions, including local ones (§2.4.1) — goes through
// this module's PLT in the dynamic modes.
func (im *Image) callTarget(m *Module, o *objfile.Object, importSlot map[string]int, sym string) (uint64, error) {
	if _, isIFunc := o.IFuncByName(sym); !isIFunc {
		if addr, ok := m.funcAddr[sym]; ok {
			return addr, nil // intra-module: always direct
		}
	}
	switch im.opts.Mode {
	case BindStatic, BindPatched:
		addr, ok := im.symbols[sym]
		if !ok {
			return 0, fmt.Errorf("undefined symbol %q", sym)
		}
		return addr, nil
	default: // BindLazy, BindNow: through this module's PLT
		slot, ok := importSlot[sym]
		if !ok {
			return 0, fmt.Errorf("symbol %q not in import table", sym)
		}
		if _, defined := im.symbols[sym]; !defined {
			return 0, fmt.Errorf("undefined symbol %q", sym)
		}
		return m.PLTSlotAddr(slot), nil
	}
}

// emitPLT materialises the module's PLT slots and initial GOT
// contents, in the configured trampoline flavour.
func (im *Image) emitPLT(m *Module) {
	if im.opts.PLT == PLTARM {
		im.emitARMPLT(m)
		return
	}
	// PLT0: push module id; invoke the resolver.
	plt0 := m.PLTBase
	im.instrs[plt0] = &isa.Instr{Op: isa.Push, Size: isa.SizePush, Val: uint64(m.ID), PLT: true}
	im.instrs[plt0+isa.SizePush] = &isa.Instr{Op: isa.Resolve, Size: isa.SizeJmpMem, PLT: true}

	for i, sym := range m.imports {
		slot := m.PLTSlotAddr(i)
		got := m.GOTSlotAddr(i)
		// jmp *(got); push reloc; jmp plt0
		im.instrs[slot] = &isa.Instr{Op: isa.JmpMem, Size: isa.SizeJmpMem, Mem: got, PLT: true}
		im.instrs[slot+isa.SizeJmpMem] = &isa.Instr{Op: isa.Push, Size: isa.SizePush, Val: uint64(i), PLT: true}
		im.instrs[slot+isa.SizeJmpMem+isa.SizePush] = &isa.Instr{Op: isa.Jmp, Size: isa.SizeJmp, Target: plt0, PLT: true}
		im.trampolineSym[slot] = sym

		im.writeGOT(got, im.initialGOTWord(m, i, sym))
	}
}

// initialGOTWord returns the load-time value of import slot i's GOT
// entry: the lazy re-entry point into the PLT (x86) or stub (ARM) for
// BindLazy, or the final symbol address otherwise.
func (im *Image) initialGOTWord(m *Module, i int, sym string) uint64 {
	if im.opts.Mode != BindLazy {
		return im.symbols[sym] // BindNow, BindPatched: eager
	}
	return im.lazyGOTWord(m, i)
}

// emitARMPLT materialises ARM-flavoured trampolines (paper Fig. 2b):
// two address-forming adds and an `ldr pc, [got]`, all 4-byte
// instructions.  Lazy binding goes through a per-import stub (push
// reloc; push module; resolve) after the slots.
func (im *Image) emitARMPLT(m *Module) {
	stubBase := m.PLTBase + uint64(len(m.imports)+1)*PLTSlotBytes
	for i, sym := range m.imports {
		slot := m.PLTSlotAddr(i)
		got := m.GOTSlotAddr(i)
		im.instrs[slot] = &isa.Instr{Op: isa.ALU, Size: 4, PLT: true}
		im.instrs[slot+4] = &isa.Instr{Op: isa.ALU, Size: 4, PLT: true}
		im.instrs[slot+8] = &isa.Instr{Op: isa.JmpMem, Size: 4, Mem: got, PLT: true}
		im.trampolineSym[slot] = sym

		stub := stubBase + uint64(i)*armStubBytes
		im.instrs[stub] = &isa.Instr{Op: isa.Push, Size: 4, Val: uint64(i), PLT: true}
		im.instrs[stub+4] = &isa.Instr{Op: isa.Push, Size: 4, Val: uint64(m.ID), PLT: true}
		im.instrs[stub+8] = &isa.Instr{Op: isa.Resolve, Size: 4, PLT: true}

		im.writeGOT(got, im.initialGOTWord(m, i, sym))
	}
}

// recordPatch notes a rewritten call site for §5.5 accounting.
func (im *Image) recordPatch(m *Module, callAddr uint64) {
	im.patch.CallSites++
	page := mem.PageBase(callAddr)
	key := fmt.Sprintf("%s|%d", m.Name, page)
	if !im.patchedPageSeen(key) {
		im.patch.PagesTouched++
		im.patch.PagesByModule[m.Name]++
	}
}

// patchedPageSeen tracks distinct (module, page) pairs.
func (im *Image) patchedPageSeen(key string) bool {
	if im.patchedPages == nil {
		im.patchedPages = make(map[string]bool)
	}
	if im.patchedPages[key] {
		return true
	}
	im.patchedPages[key] = true
	return false
}
