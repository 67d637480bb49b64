package linker

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/objfile"
)

// testProgram builds a tiny app + two libraries:
//
//	app:  main calls libc:write and libx:parse; helper is local.
//	libc: write calls its local sys; parse is not here.
//	libx: parse calls libc:write (inter-library call).
func testProgram() (*objfile.Object, []*objfile.Object) {
	app := objfile.New("app")
	app.AddData("heap", 4096)
	app.NewFunc("main").
		ALU(2).
		Call("helper").
		Call("write").
		Call("parse").
		Halt()
	app.NewFunc("helper").ALU(1).Ret()

	libc := objfile.New("libc")
	libc.AddData("iobuf", 1024)
	libc.NewFunc("write").
		Load("iobuf", 0, 16).
		Call("sys").
		Ret()
	libc.NewFunc("sys").ALU(2).Ret()

	libx := objfile.New("libx")
	libx.NewFunc("parse").
		ALU(3).
		Call("write").
		Ret()
	return app, []*objfile.Object{libc, libx}
}

func mustLink(t *testing.T, opts Options) *Image {
	t.Helper()
	app, libs := testProgram()
	im, err := Link(app, libs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func TestModeString(t *testing.T) {
	for m, want := range map[BindingMode]string{
		BindLazy: "lazy", BindNow: "now", BindStatic: "static", BindPatched: "patched",
	} {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", m, got, want)
		}
	}
	if !strings.Contains(BindingMode(9).String(), "9") {
		t.Error("unknown mode String")
	}
}

func TestLazyLinkBasics(t *testing.T) {
	im := mustLink(t, Options{Mode: BindLazy})
	mainAddr, ok := im.Symbol("main")
	if !ok {
		t.Fatal("main not resolved")
	}
	in, ok := im.InstrAt(mainAddr)
	if !ok || in.Op != isa.ALU {
		t.Fatalf("InstrAt(main) = %+v, %v", in, ok)
	}
	if name := im.FuncName(mainAddr); name != "app:main" {
		t.Errorf("FuncName = %q", name)
	}

	app := im.Modules()[0]
	if got := app.Imports(); len(got) != 2 || got[0] != "write" || got[1] != "parse" {
		t.Fatalf("app imports = %v", got)
	}

	// Walk main: alu, alu, call helper (direct), call write (PLT),
	// call parse (PLT).
	pc := mainAddr
	var calls []*isa.Instr
	for i := 0; i < 16; i++ {
		in, ok := im.InstrAt(pc)
		if !ok {
			t.Fatalf("no instruction at %#x", pc)
		}
		if in.Op == isa.Call {
			calls = append(calls, in)
		}
		if in.Op == isa.Halt {
			break
		}
		pc += uint64(in.Size)
	}
	if len(calls) != 3 {
		t.Fatalf("found %d calls in main, want 3", len(calls))
	}
	helperAddr, _ := im.Symbol("helper")
	if calls[0].Target != helperAddr {
		t.Errorf("intra-module call target = %#x, want helper %#x", calls[0].Target, helperAddr)
	}
	if calls[1].Target != app.PLTSlotAddr(0) {
		t.Errorf("external call target = %#x, want PLT slot %#x", calls[1].Target, app.PLTSlotAddr(0))
	}
	if calls[2].Target != app.PLTSlotAddr(1) {
		t.Errorf("external call target = %#x, want PLT slot %#x", calls[2].Target, app.PLTSlotAddr(1))
	}
	if !im.InPLT(app.PLTSlotAddr(0)) || im.InPLT(mainAddr) {
		t.Error("InPLT misclassifies")
	}
	if im.TrampolineSym(app.PLTSlotAddr(0)) != "write" {
		t.Errorf("TrampolineSym = %q", im.TrampolineSym(app.PLTSlotAddr(0)))
	}
}

func TestLazyGOTPointsBackIntoPLT(t *testing.T) {
	im := mustLink(t, Options{Mode: BindLazy})
	app := im.Modules()[0]
	for i := range app.Imports() {
		got := im.Memory().Read64(app.GOTSlotAddr(i))
		want := app.PLTSlotAddr(i) + isa.SizeJmpMem // the push
		if got != want {
			t.Errorf("GOT[%d] = %#x, want PLT push %#x", i, got, want)
		}
	}
	// PLT slot structure: jmp*m, push, jmp plt0.
	slot := app.PLTSlotAddr(0)
	j, _ := im.InstrAt(slot)
	p, _ := im.InstrAt(slot + isa.SizeJmpMem)
	b, _ := im.InstrAt(slot + isa.SizeJmpMem + isa.SizePush)
	if j == nil || j.Op != isa.JmpMem || j.Mem != app.GOTSlotAddr(0) {
		t.Errorf("slot[0] = %+v", j)
	}
	if p == nil || p.Op != isa.Push || p.Val != 0 {
		t.Errorf("slot[6] = %+v", p)
	}
	if b == nil || b.Op != isa.Jmp || b.Target != app.PLTBase {
		t.Errorf("slot[11] = %+v", b)
	}
	// PLT0: push modID, resolve.
	p0, _ := im.InstrAt(app.PLTBase)
	r0, _ := im.InstrAt(app.PLTBase + isa.SizePush)
	if p0 == nil || p0.Op != isa.Push || p0.Val != 0 {
		t.Errorf("plt0 = %+v", p0)
	}
	if r0 == nil || r0.Op != isa.Resolve {
		t.Errorf("plt0+5 = %+v", r0)
	}
}

func TestEagerGOTHoldsFinalAddresses(t *testing.T) {
	im := mustLink(t, Options{Mode: BindNow})
	app := im.Modules()[0]
	writeAddr, _ := im.Symbol("write")
	if got := im.Memory().Read64(app.GOTSlotAddr(0)); got != writeAddr {
		t.Errorf("eager GOT[0] = %#x, want %#x", got, writeAddr)
	}
}

func TestStaticLinkHasNoPLT(t *testing.T) {
	im := mustLink(t, Options{Mode: BindStatic})
	if im.Trampolines() != 0 {
		t.Errorf("static image has %d trampolines", im.Trampolines())
	}
	for _, m := range im.Modules() {
		if m.PLTBase != 0 {
			t.Errorf("module %s has a PLT in static mode", m.Name)
		}
	}
	// External calls are direct.
	mainAddr, _ := im.Symbol("main")
	writeAddr, _ := im.Symbol("write")
	pc := mainAddr
	foundDirect := false
	for i := 0; i < 16; i++ {
		in, ok := im.InstrAt(pc)
		if !ok {
			break
		}
		if in.Op == isa.Call && in.Target == writeAddr {
			foundDirect = true
		}
		if in.Op == isa.Halt {
			break
		}
		pc += uint64(in.Size)
	}
	if !foundDirect {
		t.Error("static mode did not emit a direct call to write")
	}
}

func TestPatchedMode(t *testing.T) {
	im := mustLink(t, Options{Mode: BindPatched, ASLR: true})
	if im.Options().ASLR {
		t.Error("patched mode must disable ASLR")
	}
	// Calls are direct but the PLT still exists in the image.
	if im.Trampolines() == 0 {
		t.Error("patched image dropped its PLT")
	}
	mainAddr, _ := im.Symbol("main")
	writeAddr, _ := im.Symbol("write")
	pc := mainAddr
	direct := false
	for i := 0; i < 16; i++ {
		in, ok := im.InstrAt(pc)
		if !ok {
			break
		}
		if in.Op == isa.Call && in.Target == writeAddr {
			direct = true
		}
		if in.Op == isa.Halt {
			break
		}
		pc += uint64(in.Size)
	}
	if !direct {
		t.Error("patched mode did not rewrite the call site")
	}
	st := im.Patch()
	// app has 2 external call sites, libc 0 (sys is local), libx 1.
	if st.CallSites != 3 {
		t.Errorf("CallSites = %d, want 3", st.CallSites)
	}
	if st.PagesTouched < 1 || st.PagesTouched > 3 {
		t.Errorf("PagesTouched = %d", st.PagesTouched)
	}
	// Libraries must be within rel32 reach of the executable (§4.3).
	for _, m := range im.Modules()[1:] {
		if m.Base-TextBaseForTest >= 1<<31 {
			t.Errorf("library %s at %#x beyond 2GiB reach", m.Name, m.Base)
		}
	}
}

// TextBaseForTest mirrors mmu.TextBase without importing it here.
const TextBaseForTest = 0x400000

func TestInterLibraryCallUsesCallersPLT(t *testing.T) {
	im := mustLink(t, Options{Mode: BindLazy})
	libx := im.Modules()[2]
	if len(libx.Imports()) != 1 || libx.Imports()[0] != "write" {
		t.Fatalf("libx imports = %v", libx.Imports())
	}
	parseAddr, _ := im.Symbol("parse")
	pc := parseAddr
	found := false
	for i := 0; i < 8; i++ {
		in, ok := im.InstrAt(pc)
		if !ok {
			break
		}
		if in.Op == isa.Call {
			if in.Target != libx.PLTSlotAddr(0) {
				t.Errorf("inter-library call = %#x, want libx PLT %#x", in.Target, libx.PLTSlotAddr(0))
			}
			found = true
		}
		if in.Op == isa.Ret {
			break
		}
		pc += uint64(in.Size)
	}
	if !found {
		t.Error("no call found in parse")
	}
}

func TestResolve(t *testing.T) {
	im := mustLink(t, Options{Mode: BindLazy})
	app := im.Modules()[0]
	gotAddr, funcAddr, err := im.Resolve(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	writeAddr, _ := im.Symbol("write")
	if gotAddr != app.GOTSlotAddr(0) || funcAddr != writeAddr {
		t.Errorf("Resolve = %#x, %#x; want %#x, %#x", gotAddr, funcAddr, app.GOTSlotAddr(0), writeAddr)
	}
	if im.Resolutions() != 1 {
		t.Errorf("Resolutions = %d", im.Resolutions())
	}
	// Error paths.
	if _, _, err := im.Resolve(99, 0); err == nil {
		t.Error("bad module id accepted")
	}
	if _, _, err := im.Resolve(0, 99); err == nil {
		t.Error("bad reloc accepted")
	}
}

func TestUndefinedSymbol(t *testing.T) {
	app := objfile.New("app")
	app.NewFunc("main").Call("missing").Halt()
	for _, mode := range []BindingMode{BindLazy, BindStatic, BindPatched} {
		if _, err := Link(app, nil, Options{Mode: mode}); err == nil {
			t.Errorf("mode %v: undefined symbol accepted", mode)
		} else if !strings.Contains(err.Error(), "missing") {
			t.Errorf("mode %v: error %q does not name the symbol", mode, err)
		}
	}
}

func TestFirstDefinitionWins(t *testing.T) {
	app := objfile.New("app")
	app.NewFunc("main").Call("dup").Halt()
	lib1 := objfile.New("lib1")
	lib1.NewFunc("dup").ALU(1).Ret()
	lib2 := objfile.New("lib2")
	lib2.NewFunc("dup").ALU(2).Ret()
	im, err := Link(app, []*objfile.Object{lib1, lib2}, Options{Mode: BindStatic})
	if err != nil {
		t.Fatal(err)
	}
	dup, _ := im.Symbol("dup")
	if got := im.FuncName(dup); got != "lib1:dup" {
		t.Errorf("dup bound to %q, want lib1:dup", got)
	}
}

func TestBranchDisplacementResolution(t *testing.T) {
	app := objfile.New("app")
	f := app.NewFunc("main")
	f.ALU(1).CondSkip(50, 2).ALU(2).ALU(1).Halt()
	// Body: [alu, jcc(+3), alu, alu, alu, halt]; jcc at idx 1 targets idx 4.
	im, err := Link(app, nil, Options{Mode: BindStatic})
	if err != nil {
		t.Fatal(err)
	}
	mainAddr, _ := im.Symbol("main")
	jccAddr := mainAddr + isa.SizeALU
	jcc, ok := im.InstrAt(jccAddr)
	if !ok || jcc.Op != isa.JmpCond {
		t.Fatalf("no jcc at %#x", jccAddr)
	}
	want := jccAddr + isa.SizeJmpCond + 2*isa.SizeALU
	if jcc.Target != want {
		t.Errorf("jcc target = %#x, want %#x", jcc.Target, want)
	}
}

func TestPtrInitWritten(t *testing.T) {
	app := objfile.New("app")
	app.AddData("vtable", 64)
	app.InitPtr("vtable", 8, "virt")
	app.NewFunc("main").CallPtr("vtable", 8).Halt()
	lib := objfile.New("lib")
	lib.NewFunc("virt").Ret()
	im, err := Link(app, []*objfile.Object{lib}, Options{Mode: BindLazy})
	if err != nil {
		t.Fatal(err)
	}
	virtAddr, _ := im.Symbol("virt")
	mainAddr, _ := im.Symbol("main")
	callInd, _ := im.InstrAt(mainAddr)
	if callInd.Op != isa.CallInd {
		t.Fatalf("main[0] = %v", callInd.Op)
	}
	if got := im.Memory().Read64(callInd.Mem); got != virtAddr {
		t.Errorf("vtable slot = %#x, want %#x", got, virtAddr)
	}
}

func TestLayoutInvariants(t *testing.T) {
	for _, mode := range []BindingMode{BindLazy, BindNow, BindStatic, BindPatched} {
		im := mustLink(t, Options{Mode: mode, Seed: 3})
		type span struct {
			name   string
			lo, hi uint64
		}
		var spans []span
		for _, m := range im.Modules() {
			spans = append(spans, span{m.Name, m.Base, m.DataEnd})
			// Text/PLT and data never share a page.
			textEnd := m.TextEnd
			if m.PLTEnd > textEnd {
				textEnd = m.PLTEnd
			}
			if mem.PageNum(textEnd) >= mem.PageNum(m.DataBase) {
				t.Errorf("%v %s: data page %#x not above text page %#x", mode, m.Name, m.DataBase, textEnd)
			}
			// PLT slots are 16-byte spaced.
			if m.PLTBase%16 != 0 {
				t.Errorf("%v %s: PLT base %#x misaligned", mode, m.Name, m.PLTBase)
			}
		}
		for i := 1; i < len(spans); i++ {
			for j := 0; j < i; j++ {
				a, b := spans[i], spans[j]
				if a.lo < b.hi && b.lo < a.hi {
					t.Errorf("%v: modules %s and %s overlap", mode, a.name, b.name)
				}
			}
		}
		if im.TextBytes() == 0 {
			t.Errorf("%v: TextBytes = 0", mode)
		}
	}
}

func TestASLRChangesLibraryBases(t *testing.T) {
	app, libs := testProgram()
	im1, err := Link(app, libs, Options{Mode: BindLazy, ASLR: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	im2, err := Link(app, libs, Options{Mode: BindLazy, ASLR: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if im1.Modules()[1].Base == im2.Modules()[1].Base {
		t.Error("ASLR did not vary library base across seeds")
	}
	// Same seed: identical layout (determinism).
	im3, err := Link(app, libs, Options{Mode: BindLazy, ASLR: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if im1.Modules()[1].Base != im3.Modules()[1].Base {
		t.Error("same seed produced different layout")
	}
}

func TestModuleOfAndLinkerData(t *testing.T) {
	im := mustLink(t, Options{Mode: BindLazy})
	mainAddr, _ := im.Symbol("main")
	if m := im.ModuleOf(mainAddr); m == nil || m.Name != "app" {
		t.Errorf("ModuleOf(main) = %v", m)
	}
	if m := im.ModuleOf(0x1); m != nil {
		t.Errorf("ModuleOf(0x1) = %v, want nil", m)
	}
	base, size := im.LinkerData()
	if base == 0 || size == 0 {
		t.Error("linker data region missing")
	}
	if m := im.ModuleOf(base); m != nil {
		t.Error("linker data overlaps a module")
	}
	if im.StackTop() == 0 {
		t.Error("no stack")
	}
}

// TestEveryEmittedInstructionValidates also pins the code
// representation, in every binding mode and PLT style: each module's
// code ascends by PC without overlap and lies inside its text or PLT
// range, the live modules ascend by base address, and InstrAt agrees
// with the module code at every byte of it.
func TestEveryEmittedInstructionValidates(t *testing.T) {
	for _, mode := range []BindingMode{BindLazy, BindNow, BindStatic, BindPatched} {
		for _, plt := range []PLTStyle{PLTx86, PLTARM} {
			label := fmt.Sprintf("%v/%v", mode, plt)
			im := mustLink(t, Options{Mode: mode, PLT: plt})
			checkCode(t, label, im)
			for _, m := range im.CodeModules() {
				for _, p := range m.Code() {
					if err := p.Validate(); err != nil {
						t.Errorf("%s: instr at %#x invalid: %v", label, p.PC, err)
					}
				}
			}
		}
	}
}

// checkCode checks im's code representation: live modules ascend by
// base, each module's code ascends by PC without overlap inside its
// text or PLT range, and InstrAt returns the module's own element at
// every instruction start and misses at every other byte of the code
// range.
func checkCode(t *testing.T, label string, im *Image) {
	t.Helper()
	var prevEnd uint64
	for _, m := range im.CodeModules() {
		if m.Dead() {
			t.Errorf("%s: dead module %s among the live", label, m.Name)
		}
		if m.Base < prevEnd {
			t.Errorf("%s: module %s at %#x below the previous module's code end %#x", label, m.Name, m.Base, prevEnd)
		}
		prevEnd = m.codeEnd()
		code := m.Code()
		if len(code) == 0 {
			t.Errorf("%s: module %s has no code", label, m.Name)
			continue
		}
		next := m.Base
		for i := range code {
			p := &code[i]
			end := p.PC + uint64(p.Size)
			inText := p.PC >= m.Base && end <= m.TextEnd
			inPLT := m.PLTBase != 0 && p.PC >= m.PLTBase && end <= m.PLTEnd
			if !inText && !inPLT || p.PLT != inPLT {
				t.Fatalf("%s: %s code[%d] [%#x, %#x) PLT=%v outside its section (text [%#x, %#x), PLT [%#x, %#x))",
					label, m.Name, i, p.PC, end, p.PLT, m.Base, m.TextEnd, m.PLTBase, m.PLTEnd)
			}
			if p.PC < next {
				t.Fatalf("%s: %s code[%d] at %#x overlaps or precedes the previous instruction (ends %#x)", label, m.Name, i, p.PC, next)
			}
			for a := next; a < p.PC; a++ {
				if in, ok := im.InstrAt(a); ok {
					t.Fatalf("%s: InstrAt(%#x) = %+v between instructions", label, a, in)
				}
			}
			if in, ok := im.InstrAt(p.PC); !ok || in != &p.Instr {
				t.Fatalf("%s: InstrAt(%#x) = %v, %v; want the module's code[%d]", label, p.PC, in, ok, i)
			}
			for a := p.PC + 1; a < end; a++ {
				if in, ok := im.InstrAt(a); ok {
					t.Fatalf("%s: InstrAt(%#x) = %+v inside the instruction at %#x", label, a, in, p.PC)
				}
			}
			next = end
		}
		for a := next; a < m.codeEnd(); a++ {
			if in, ok := im.InstrAt(a); ok {
				t.Fatalf("%s: InstrAt(%#x) = %+v past %s's last instruction", label, a, in, m.Name)
			}
		}
	}
}
