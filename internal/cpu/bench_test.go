package cpu

import (
	"testing"

	"repro/internal/linker"
	"repro/internal/objfile"
)

// benchImage builds a moderate program for throughput measurement.
func benchImage(b *testing.B, enhanced bool) *CPU {
	b.Helper()
	app := objfile.New("app")
	m := app.NewFunc("main")
	lib := objfile.New("lib")
	lib.AddData("d", 8192)
	for i := 0; i < 16; i++ {
		name := "f" + string(rune('a'+i))
		lib.NewFunc(name).ALU(8).Load("d", uint64(i*64), 8).Ret()
		m.Call(name)
	}
	m.Halt()
	im, err := linker.Link(app, []*objfile.Object{lib}, linker.Options{Mode: linker.BindLazy})
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	if enhanced {
		cfg = EnhancedConfig()
	}
	c := New(im, cfg)
	for i := 0; i < 3; i++ { // resolve and warm
		if _, err := c.RunSymbol("main", 0); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

// BenchmarkSimulatedInstructions reports simulator throughput in
// nanoseconds per simulated instruction (as ns/op divided by the
// reported instructions metric).
func BenchmarkSimulatedInstructionsBase(b *testing.B) {
	c := benchImage(b, false)
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		res, err := c.RunSymbol("main", 0)
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.Instructions
	}
	b.ReportMetric(float64(instrs)/float64(b.N), "instrs/op")
}

func BenchmarkSimulatedInstructionsEnhanced(b *testing.B) {
	c := benchImage(b, true)
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		res, err := c.RunSymbol("main", 0)
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.Instructions
	}
	b.ReportMetric(float64(instrs)/float64(b.N), "instrs/op")
}

// BenchmarkRunTimelineOff is the sampling-disabled baseline for the
// timeline overhead comparison: identical to the enhanced-config
// throughput bench, with no sampler ever attached.  The acceptance
// bound is a ≤1% delta against the pre-sampling kernel and zero
// allocations per run (see TestTimelineOffNoAllocs).
func BenchmarkRunTimelineOff(b *testing.B) {
	c := benchImage(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		res, err := c.RunSymbol("main", 0)
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.Instructions
	}
	b.ReportMetric(float64(instrs)/float64(b.N), "instrs/op")
}

// BenchmarkRunTimelineOn measures the same workload with a sampler
// attached at the default production interval (64Ki instructions).
// The callback is a counting no-op so the bench isolates the kernel's
// own sampling cost: the boundary bookkeeping, not the collector.
func BenchmarkRunTimelineOn(b *testing.B) {
	c := benchImage(b, true)
	var fired uint64
	c.SetSampler(64<<10, func(IntervalSample) { fired++ })
	b.ReportAllocs()
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		res, err := c.RunSymbol("main", 0)
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.Instructions
	}
	b.ReportMetric(float64(instrs)/float64(b.N), "instrs/op")
}

// benchComputeCPU builds a compute-heavy image: long straight-line ALU
// bodies with occasional data accesses, the shape trace compilation
// batches into full superblocks.
func benchComputeCPU(b *testing.B) *CPU {
	b.Helper()
	app := objfile.New("app")
	m := app.NewFunc("main")
	lib := objfile.New("lib")
	lib.AddData("d", 8192)
	for i := 0; i < 8; i++ {
		name := "w" + string(rune('a'+i))
		f := lib.NewFunc(name)
		for j := 0; j < 6; j++ {
			f.ALU(28).Load("d", uint64(i*64), 512)
		}
		f.Ret()
		m.Call(name)
		m.ALU(16)
	}
	m.Halt()
	im, err := linker.Link(app, []*objfile.Object{lib}, linker.Options{Mode: linker.BindLazy})
	if err != nil {
		b.Fatal(err)
	}
	c := New(im, DefaultConfig())
	for i := 0; i < 3; i++ { // compile, resolve and warm
		if _, err := c.RunSymbol("main", 0); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

// BenchmarkComputeCompiled times the compute-heavy image: superblock
// dispatch, RLE fetch runs and threaded successors at their best case.
func BenchmarkComputeCompiled(b *testing.B) {
	c := benchComputeCPU(b)
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		res, err := c.RunSymbol("main", 0)
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.Instructions
	}
	b.ReportMetric(float64(instrs)/float64(b.N), "instrs/op")
}
