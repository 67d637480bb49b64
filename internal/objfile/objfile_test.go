package objfile

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

func validObject(t *testing.T) *Object {
	t.Helper()
	o := New("libtest")
	o.AddData("buf", 256)
	o.NewFunc("work").ALU(3).Load("buf", 0, 8).Ret()
	return o
}

func TestBuilderProducesValidObject(t *testing.T) {
	o := validObject(t)
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	if o.Name() != "libtest" {
		t.Errorf("Name = %q", o.Name())
	}
	f := o.Func("work")
	if f == nil || len(f.Body) != 5 {
		t.Fatalf("work body = %v", f)
	}
	if f.Body[4].Op != isa.Ret {
		t.Error("last op not ret")
	}
}

func TestExternals(t *testing.T) {
	o := New("app")
	o.AddData("d", 64)
	o.NewFunc("main").
		Call("local").
		Call("printf").
		Call("malloc").
		Call("printf"). // duplicate reference: one slot
		Halt()
	o.NewFunc("local").Ret()
	o.InitPtr("d", 0, "qsort_cmp")
	ext := o.Externals()
	want := []string{"printf", "malloc", "qsort_cmp"}
	if len(ext) != len(want) {
		t.Fatalf("Externals = %v, want %v", ext, want)
	}
	for i := range want {
		if ext[i] != want[i] {
			t.Errorf("Externals[%d] = %q, want %q (order must be first-use)", i, ext[i], want[i])
		}
	}
}

func TestExternalsExcludesLocalDefs(t *testing.T) {
	o := New("lib")
	o.NewFunc("a").Call("b").Ret()
	o.NewFunc("b").Ret()
	if ext := o.Externals(); len(ext) != 0 {
		t.Errorf("Externals = %v, want none", ext)
	}
}

// invalidObjects is one object per structural fault Validate
// catches, with a fragment its error must mention.
var invalidObjects = []struct {
	name  string
	build func() *Object
	frag  string
}{
	{"no functions", func() *Object { return New("x") }, "no functions"},
	{"empty function", func() *Object {
		o := New("x")
		o.NewFunc("f")
		return o
	}, "empty"},
	{"no terminator", func() *Object {
		o := New("x")
		f := o.NewFunc("f")
		f.ALU(2)
		return o
	}, "ret/halt"},
	{"unknown region", func() *Object {
		o := New("x")
		o.NewFunc("f").Load("nope", 0, 1).Ret()
		return o
	}, "unknown region"},
	{"region overflow", func() *Object {
		o := New("x")
		o.AddData("small", 16)
		o.NewFunc("f").Load("small", 8, 4).Ret() // needs 8+32 > 16
		return o
	}, "overflows"},
	{"branch escapes", func() *Object {
		o := New("x")
		f := o.NewFunc("f")
		f.Body = append(f.Body, TInstr{Op: isa.JmpCond, Bias: 50, Rel: 9})
		f.Ret()
		return o
	}, "escapes"},
	{"zero displacement", func() *Object {
		o := New("x")
		f := o.NewFunc("f")
		f.Body = append(f.Body, TInstr{Op: isa.JmpCond, Bias: 50, Rel: 0})
		f.Ret()
		return o
	}, "zero-displacement"},
	{"reserved op", func() *Object {
		o := New("x")
		f := o.NewFunc("f")
		f.Body = append(f.Body, TInstr{Op: isa.JmpMem})
		f.Ret()
		return o
	}, "linker-reserved"},
	{"call without symbol", func() *Object {
		o := New("x")
		f := o.NewFunc("f")
		f.Body = append(f.Body, TInstr{Op: isa.Call})
		f.Ret()
		return o
	}, "without symbol"},
}

func TestValidateCatches(t *testing.T) {
	for _, tt := range invalidObjects {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.build().Validate()
			if err == nil {
				t.Fatal("Validate passed")
			}
			if !strings.Contains(err.Error(), tt.frag) {
				t.Errorf("error %q does not mention %q", err, tt.frag)
			}
		})
	}
}

func TestCondSkipAndLoopBackDisplacements(t *testing.T) {
	o := New("x")
	f := o.NewFunc("f")
	f.ALU(1).CondSkip(30, 2).ALU(2).Load("", 0, 0) // placeholder fixed below
	f.Body = f.Body[:len(f.Body)-1]                // drop bogus load
	f.LoopBack(50, 3)
	f.Ret()
	// Body: [alu, jcc(+3), alu, alu, jcc(-3), ret]
	if f.Body[1].Rel != 3 {
		t.Errorf("CondSkip Rel = %d, want 3", f.Body[1].Rel)
	}
	if f.Body[4].Rel != -3 {
		t.Errorf("LoopBack Rel = %d, want -3", f.Body[4].Rel)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	// jcc(+3) from index 1 lands on index 4; jcc(-3) from 4 lands on 1.
}

func TestBuilderPanics(t *testing.T) {
	for _, tt := range []struct {
		name string
		f    func()
	}{
		{"duplicate data", func() {
			o := New("x")
			o.AddData("d", 8)
			o.AddData("d", 8)
		}},
		{"empty data", func() { New("x").AddData("d", 0) }},
		{"duplicate func", func() {
			o := New("x")
			o.NewFunc("f")
			o.NewFunc("f")
		}},
		{"empty call sym", func() { New("x").NewFunc("f").Call("") }},
		{"ptr init unknown region", func() { New("x").InitPtr("nope", 0, "f") }},
		{"ptr init overflow", func() {
			o := New("x")
			o.AddData("d", 8)
			o.InitPtr("d", 4, "f")
		}},
		{"condskip zero", func() { New("x").NewFunc("f").CondSkip(50, 0) }},
		{"loopback zero", func() { New("x").NewFunc("f").LoopBack(50, 0) }},
	} {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tt.f()
		})
	}
}

func TestDataRegionByName(t *testing.T) {
	o := validObject(t)
	r, ok := o.DataRegionByName("buf")
	if !ok || r.Size != 256 {
		t.Errorf("DataRegionByName = %+v, %v", r, ok)
	}
	if _, ok := o.DataRegionByName("nope"); ok {
		t.Error("unknown region found")
	}
}

func TestDefines(t *testing.T) {
	o := validObject(t)
	if !o.Defines("work") {
		t.Error("Defines(work) = false")
	}
	if o.Defines("other") {
		t.Error("Defines(other) = true")
	}
}
