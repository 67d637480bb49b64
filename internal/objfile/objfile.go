// Package objfile defines the relocatable object format consumed by
// the linker: named functions whose bodies are template instructions
// with symbolic references, plus named data regions and initialised
// function pointers.
//
// An Object corresponds to one compiled module — the main executable
// or one shared library.  Function bodies reference other functions by
// symbol name; whether a call becomes a direct call, a PLT trampoline,
// or a patched call site is entirely the linker's decision, which is
// exactly the property the paper's evaluation varies.
package objfile

import (
	"fmt"
	"sync"
	"unsafe"

	"repro/internal/isa"
)

// TInstr is a template instruction: an isa.Instr whose target and
// memory operand are still symbolic.
type TInstr struct {
	Op   isa.Op
	Bias uint8 // JmpCond taken probability

	// Sym names a function for Call, or a data region for Load,
	// Store and CallInd (the region slot holds the function pointer).
	Sym string

	// Off is the byte offset within the data region.
	Off uint64

	// Span is the number of 8-byte slots the effective address sweeps
	// (Load/Store only).
	Span uint64

	// Rel is the branch displacement for Jmp/JmpCond, in body
	// instruction indexes relative to the branch itself: the target
	// index is the branch's index plus Rel.  Rel 0 (a self-loop) is
	// invalid; positive values branch forward, negative backwards.
	Rel int

	// Val is the immediate stored by Store.
	Val uint64

	// GOTSym, on a Store, turns the instruction into a runtime
	// re-binding of this module's GOT entry for the named imported
	// symbol (dlclose/interposition): the linker resolves the memory
	// operand to the GOT slot of GOTSym and the stored value to the
	// address of the function named by Sym.  This is exactly the
	// GOT-modification case the paper's Bloom filter exists for
	// (§3.1, §3.3 "GOT entry of library function modified").
	GOTSym string
}

// DataRegion is a named chunk of the module's data segment.
type DataRegion struct {
	Name string
	Size uint64
}

// PtrInit initialises an 8-byte slot of a data region with the
// resolved address of a function symbol (C function pointers, vtable
// slots).
type PtrInit struct {
	Region string
	Off    uint64
	Sym    string
}

// IFunc is a GNU indirect function (§2.4.1): a symbol whose
// implementation is selected from candidate variants when the program
// is loaded, based on hardware capability.  Calls to an ifunc always
// go through the PLT, even from within the defining module — which is
// why glibc's heavily used string routines are exactly the
// trampolines the ABTB accelerates.
type IFunc struct {
	Name     string
	Variants []string // candidate implementations, in capability order
}

// Object is one relocatable module.
type Object struct {
	name       string
	funcs      []*Func
	funcIndex  map[string]*Func
	data       []DataRegion
	dataIndex  map[string]int
	ptrInits   []PtrInit
	ifuncs     []IFunc
	ifuncIndex map[string]int

	// externals memoises Externals: the import list is a pure function
	// of the finished object, and every link of it asks again.
	externalsOnce sync.Once
	externals     []string

	// validErr memoises Validate the same way: every link and every
	// churn load of the object asks again.
	validOnce sync.Once
	validErr  error
}

// New returns an empty object named name.
func New(name string) *Object {
	return &Object{
		name:       name,
		funcIndex:  make(map[string]*Func),
		dataIndex:  make(map[string]int),
		ifuncIndex: make(map[string]int),
	}
}

// Name returns the module name.
func (o *Object) Name() string { return o.name }

// AddData declares a data region.  It panics on duplicate names or
// zero size: object construction errors are programming bugs in the
// workload generators.
func (o *Object) AddData(name string, size uint64) {
	if _, dup := o.dataIndex[name]; dup {
		panic(fmt.Sprintf("objfile: duplicate data region %q in %q", name, o.name))
	}
	if size == 0 {
		panic(fmt.Sprintf("objfile: empty data region %q in %q", name, o.name))
	}
	o.dataIndex[name] = len(o.data)
	o.data = append(o.data, DataRegion{Name: name, Size: size})
}

// InitPtr requests that the 8-byte slot at off within region be
// initialised with the address of the function named sym.
func (o *Object) InitPtr(region string, off uint64, sym string) {
	i, ok := o.dataIndex[region]
	if !ok {
		panic(fmt.Sprintf("objfile: InitPtr into unknown region %q in %q", region, o.name))
	}
	if off+8 > o.data[i].Size {
		panic(fmt.Sprintf("objfile: InitPtr at %d overflows region %q (size %d)", off, region, o.data[i].Size))
	}
	o.ptrInits = append(o.ptrInits, PtrInit{Region: region, Off: off, Sym: sym})
}

// NewFunc creates and registers an empty function.  Function names
// are the linker's symbol names and must be unique within the object.
func (o *Object) NewFunc(name string) *Func {
	if _, dup := o.funcIndex[name]; dup {
		panic(fmt.Sprintf("objfile: duplicate function %q in %q", name, o.name))
	}
	f := &Func{Name: name}
	o.funcIndex[name] = f
	o.funcs = append(o.funcs, f)
	return f
}

// DeclareIFunc registers an indirect-function symbol whose
// implementation the loader picks from variants (which must be
// functions defined in this object).  The name must not collide with
// a regular function.
func (o *Object) DeclareIFunc(name string, variants ...string) {
	if len(variants) == 0 {
		panic(fmt.Sprintf("objfile: ifunc %q with no variants", name))
	}
	if _, dup := o.funcIndex[name]; dup {
		panic(fmt.Sprintf("objfile: ifunc %q collides with function", name))
	}
	if _, dup := o.ifuncIndex[name]; dup {
		panic(fmt.Sprintf("objfile: duplicate ifunc %q", name))
	}
	o.ifuncIndex[name] = len(o.ifuncs)
	o.ifuncs = append(o.ifuncs, IFunc{Name: name, Variants: append([]string(nil), variants...)})
}

// IFuncs returns the declared indirect functions.
func (o *Object) IFuncs() []IFunc { return o.ifuncs }

// IFuncByName returns the ifunc declaration and whether it exists.
func (o *Object) IFuncByName(name string) (IFunc, bool) {
	i, ok := o.ifuncIndex[name]
	if !ok {
		return IFunc{}, false
	}
	return o.ifuncs[i], true
}

// Funcs returns the functions in definition order.
func (o *Object) Funcs() []*Func { return o.funcs }

// Func returns the function named name, or nil.
func (o *Object) Func(name string) *Func { return o.funcIndex[name] }

// Data returns the declared data regions in declaration order.
func (o *Object) Data() []DataRegion { return o.data }

// DataRegionByName returns the region and whether it exists.
func (o *Object) DataRegionByName(name string) (DataRegion, bool) {
	i, ok := o.dataIndex[name]
	if !ok {
		return DataRegion{}, false
	}
	return o.data[i], true
}

// PtrInits returns the requested pointer initialisations.
func (o *Object) PtrInits() []PtrInit { return o.ptrInits }

// Defines reports whether the object defines the symbol, as a regular
// function or as an indirect function.
func (o *Object) Defines(sym string) bool {
	if _, ok := o.funcIndex[sym]; ok {
		return true
	}
	_, ok := o.ifuncIndex[sym]
	return ok
}

// Externals returns, in first-use order, every symbol that needs a
// PLT/GOT slot in this module: function symbols referenced but not
// defined here, plus indirect functions — which go through the PLT
// even when called from their defining module (§2.4.1) — and the GOT
// slots named by runtime re-binding stores.  The linker allocates one
// PLT/GOT slot per entry, in this order, mirroring how compilers emit
// PLT entries in definition order (§2).
//
// The list is derived once, on the first call, and shared by every
// later caller, which must not modify it.  The object must therefore
// be complete before it is first linked or asked for its externals:
// building it further afterwards leaves the list stale.
func (o *Object) Externals() []string {
	o.externalsOnce.Do(func() { o.externals = o.scanExternals() })
	return o.externals
}

// scanExternals walks every instruction and pointer initialisation
// for the list Externals returns.
func (o *Object) scanExternals() []string {
	var out []string
	seen := make(map[string]bool)
	add := func(sym string, force bool) {
		if sym == "" || seen[sym] {
			return
		}
		if !force && o.definesDirectly(sym) {
			return
		}
		seen[sym] = true
		out = append(out, sym)
	}
	for _, f := range o.funcs {
		for _, in := range f.Body {
			switch {
			case in.Op == isa.Call:
				_, localIFunc := o.ifuncIndex[in.Sym]
				add(in.Sym, localIFunc)
			case in.Op == isa.Store && in.GOTSym != "":
				add(in.GOTSym, false)
			}
		}
	}
	for _, pi := range o.ptrInits {
		add(pi.Sym, false)
	}
	return out
}

// definesDirectly reports whether sym is a regular function of this
// object (ifuncs are indirect by definition).
func (o *Object) definesDirectly(sym string) bool {
	_, ok := o.funcIndex[sym]
	return ok
}

// Bytes returns the heap the object's function bodies hold: each
// Func and its body's backing array, capacity included.  That is
// almost all of a generated object (about 95% of the heap a generated
// bundle retains); symbol names, data declarations and the indexes are
// not counted.
func (o *Object) Bytes() uint64 {
	var n uint64
	for _, f := range o.funcs {
		n += uint64(unsafe.Sizeof(*f)) + uint64(cap(f.Body))*uint64(unsafe.Sizeof(TInstr{}))
	}
	return n
}

// Validate checks structural well-formedness of the whole object.
//
// The check runs once, on the first call, and every later call
// returns its verdict.  As with Externals, the object must therefore
// be complete before it is first validated or linked: building it
// further afterwards leaves the verdict stale.
func (o *Object) Validate() error {
	o.validOnce.Do(func() { o.validErr = o.validate() })
	return o.validErr
}

// validate walks every function, instruction, pointer initialisation
// and indirect function for the verdict Validate returns.
func (o *Object) validate() error {
	if len(o.funcs) == 0 {
		return fmt.Errorf("objfile: object %q has no functions", o.name)
	}
	for _, f := range o.funcs {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("objfile: %q: %w", o.name, err)
		}
		for _, in := range f.Body {
			switch in.Op {
			case isa.Load, isa.Store, isa.CallInd:
				if in.Op == isa.Store && in.GOTSym != "" {
					// A runtime re-binding store; the linker
					// resolves both symbols.
					if in.Sym == "" {
						return fmt.Errorf("objfile: %q: rebind of %q without target", f.Name, in.GOTSym)
					}
					continue
				}
				if _, ok := o.dataIndex[in.Sym]; !ok {
					return fmt.Errorf("objfile: %q: %s references unknown region %q",
						f.Name, in.Op, in.Sym)
				}
				region := o.data[o.dataIndex[in.Sym]]
				need := in.Off + 8
				if in.Span > 1 {
					need = in.Off + in.Span*8
				}
				if need > region.Size {
					return fmt.Errorf("objfile: %q: %s at +%d span %d overflows region %q (size %d)",
						f.Name, in.Op, in.Off, in.Span, in.Sym, region.Size)
				}
			}
		}
	}
	for _, pi := range o.ptrInits {
		if pi.Sym == "" {
			return fmt.Errorf("objfile: %q: pointer init with empty symbol", o.name)
		}
	}
	for _, ifn := range o.ifuncs {
		for _, v := range ifn.Variants {
			if _, ok := o.funcIndex[v]; !ok {
				return fmt.Errorf("objfile: %q: ifunc %q variant %q not defined", o.name, ifn.Name, v)
			}
		}
	}
	return nil
}

// Func is one function body under construction.
type Func struct {
	Name string
	Body []TInstr
}

// ALU appends n register-only instructions.
func (f *Func) ALU(n int) *Func {
	for i := 0; i < n; i++ {
		f.Body = append(f.Body, TInstr{Op: isa.ALU})
	}
	return f
}

// Load appends a load from region+off sweeping span slots.
func (f *Func) Load(region string, off, span uint64) *Func {
	f.Body = append(f.Body, TInstr{Op: isa.Load, Sym: region, Off: off, Span: span})
	return f
}

// Store appends a store of val to region+off sweeping span slots.
func (f *Func) Store(region string, off, span uint64, val uint64) *Func {
	f.Body = append(f.Body, TInstr{Op: isa.Store, Sym: region, Off: off, Span: span, Val: val})
	return f
}

// Call appends a call to the function symbol sym.  Whether it is
// direct or via the PLT is decided at link time.
func (f *Func) Call(sym string) *Func {
	if sym == "" {
		panic("objfile: Call with empty symbol")
	}
	f.Body = append(f.Body, TInstr{Op: isa.Call, Sym: sym})
	return f
}

// CallPtr appends an indirect call through the function pointer stored
// at region+off (virtual dispatch, callbacks).
func (f *Func) CallPtr(region string, off uint64) *Func {
	f.Body = append(f.Body, TInstr{Op: isa.CallInd, Sym: region, Off: off})
	return f
}

// RebindImport appends a store that re-binds this module's GOT entry
// for the imported symbol got to the address of the function named
// to — the runtime linkage modification (library replacement,
// interposition) whose correctness the ABTB's Bloom filter guarantees.
func (f *Func) RebindImport(got, to string) *Func {
	if got == "" || to == "" {
		panic("objfile: RebindImport with empty symbol")
	}
	f.Body = append(f.Body, TInstr{Op: isa.Store, Sym: to, GOTSym: got})
	return f
}

// CondSkip appends a conditional branch that, with probability
// bias/100, skips the next n instructions.
func (f *Func) CondSkip(bias uint8, n int) *Func {
	if n < 1 {
		panic("objfile: CondSkip over nothing")
	}
	f.Body = append(f.Body, TInstr{Op: isa.JmpCond, Bias: bias, Rel: n + 1})
	return f
}

// LoopBack appends a conditional branch that, with probability
// bias/100, jumps back over the previous n instructions (forming a
// loop with expected 1/(1-bias/100) iterations).
func (f *Func) LoopBack(bias uint8, n int) *Func {
	if n < 1 {
		panic("objfile: LoopBack over nothing")
	}
	f.Body = append(f.Body, TInstr{Op: isa.JmpCond, Bias: bias, Rel: -n})
	return f
}

// Ret appends a return.
func (f *Func) Ret() *Func {
	f.Body = append(f.Body, TInstr{Op: isa.Ret})
	return f
}

// Halt appends a halt (driver entry points only).
func (f *Func) Halt() *Func {
	f.Body = append(f.Body, TInstr{Op: isa.Halt})
	return f
}

// Validate checks intra-function well-formedness: branch displacements
// in range, calls named, terminating instruction present.
func (f *Func) Validate() error {
	if len(f.Body) == 0 {
		return fmt.Errorf("function %q is empty", f.Name)
	}
	for i, in := range f.Body {
		switch in.Op {
		case isa.Jmp, isa.JmpCond:
			tgt := i + in.Rel
			if tgt < 0 || tgt >= len(f.Body) {
				return fmt.Errorf("function %q: branch at %d with displacement %d escapes body", f.Name, i, in.Rel)
			}
			if in.Rel == 0 {
				return fmt.Errorf("function %q: zero-displacement branch at %d", f.Name, i)
			}
		case isa.Call:
			if in.Sym == "" {
				return fmt.Errorf("function %q: call at %d without symbol", f.Name, i)
			}
		case isa.Load, isa.Store, isa.CallInd:
			if in.Sym == "" {
				return fmt.Errorf("function %q: %s at %d without region", f.Name, in.Op, i)
			}
		case isa.Resolve, isa.JmpMem, isa.Push, isa.Nop:
			return fmt.Errorf("function %q: %s at %d is linker-reserved", f.Name, in.Op, i)
		}
	}
	last := f.Body[len(f.Body)-1].Op
	if last != isa.Ret && last != isa.Halt && last != isa.Jmp {
		return fmt.Errorf("function %q does not end in ret/halt", f.Name)
	}
	return nil
}
