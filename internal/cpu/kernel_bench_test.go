package cpu_test

import (
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/linker"
	"repro/internal/runner"
	"repro/internal/workload"
)

// The golden job geometry of internal/experiments
// (testdata/golden_counters.json): seed 7 at a quarter of each app's
// default measured window.
const (
	kernelSeed  = 7
	kernelScale = 0.25
)

// kernelOpInstrs is the least work one BenchmarkKernel op retires.
const kernelOpInstrs = 1_500_000

// BenchmarkKernel measures the compiled kernel on real code footprints:
// the golden-seed, golden-scale job of every app under Base and
// Enhanced.  Set-up (generate, link, compile, the job's warmup) runs
// outside the timer; one op replays the job's measured request window
// from the compiled Program, repeated until the op has retired at
// least kernelOpInstrs instructions.  Most apps' windows run 2-9 M
// instructions, so an op is one window; jit's and plugin-server's run
// 0.1-0.25 M, which alone is a few milliseconds that host noise
// swamps at -benchtime 3x.  The images hold tens of thousands of
// instructions, more than fits in the host's L1, so the host-side
// layout of the kernel's data shows in Minstr/s.  instrs/op is exact
// and does not vary between runs at a fixed -benchtime Nx.
//
//	go test -run '^$' -bench Kernel ./internal/cpu/
func BenchmarkKernel(b *testing.B) {
	for _, app := range runner.WorkloadNames() {
		for _, kind := range []runner.ConfigKind{runner.Base, runner.Enhanced} {
			b.Run(app+"/"+string(kind), func(b *testing.B) {
				d, measure := kernelDriver(b, app, kind)
				c := d.System().CPU()
				start := c.Counters().Instructions
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for op := c.Counters().Instructions; c.Counters().Instructions-op < kernelOpInstrs; {
						if _, err := d.Run(measure); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StopTimer()
				instrs := float64(c.Counters().Instructions - start)
				b.ReportMetric(instrs/float64(b.N), "instrs/op")
				b.ReportMetric(instrs/b.Elapsed().Seconds()/1e6, "Minstr/s")
			})
		}
	}
}

// BenchmarkFastForward measures sampled simulation's skip path on the
// same golden jobs under Enhanced: after the job's warmup, one op
// fast-forwards the job's measured request count, drawing request
// classes by weight from a fixed stream.  It reports requests skipped
// per second.  Library churn, which workload.Driver schedules between
// requests, is not replayed: the op times FastForward alone.
//
//	go test -run '^$' -bench FastForward ./internal/cpu/
func BenchmarkFastForward(b *testing.B) {
	for _, app := range runner.WorkloadNames() {
		b.Run(app, func(b *testing.B) {
			d, measure := kernelDriver(b, app, runner.Enhanced)
			classes := d.Workload().Classes
			var total float64
			for _, cl := range classes {
				total += cl.Weight
			}
			rng := rand.New(rand.NewPCG(kernelSeed, 0))
			entries := make([]string, measure)
			for i := range entries {
				x := rng.Float64() * total
				k := 0
				for ; k < len(classes)-1 && x >= classes[k].Weight; k++ {
					x -= classes[k].Weight
				}
				entries[i] = classes[k].Entry
			}
			c := d.System().CPU()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, e := range entries {
					if err := c.FastForwardSymbol(e); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*measure)/b.Elapsed().Seconds()/1e3, "kreq/s")
		})
	}
}

// kernelDriver builds the golden job's system unpooled, installs its
// compiled Program and runs the job's warmup.  It returns the driver
// and the job's measured request count.
func kernelDriver(b *testing.B, app string, kind runner.ConfigKind) (*workload.Driver, int) {
	b.Helper()
	spec, err := runner.JobSpec{Workload: app, Config: kind, Seed: kernelSeed, Scale: kernelScale}.Normalize()
	if err != nil {
		b.Fatal(err)
	}
	ws, _ := runner.WorkloadByName(app)
	cfg, err := kind.Config(spec.Seed)
	if err != nil {
		b.Fatal(err)
	}
	w := ws.Gen(spec.Seed)
	sys, err := w.NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.CPU().SetProgram(cpu.Compile(sys.Image(), cfg.Hardware.L1I.LineBytes)); err != nil {
		b.Fatal(err)
	}
	d := workload.NewDriver(w, sys, workload.DriverSeed(spec.Seed))
	if err := d.Warmup(spec.Warm); err != nil {
		b.Fatal(err)
	}
	return d, spec.Measure
}

// BenchmarkLinkCompile measures an image's set-up for a fresh
// (workload, seed): linker.Link alone, and Link followed by Compile,
// cycling over the bundles of three seeds under Enhanced.  This is the
// work a pool miss does before a job's first request.
//
//	go test -run '^$' -bench LinkCompile -benchtime 40x ./internal/cpu/
func BenchmarkLinkCompile(b *testing.B) {
	for _, app := range runner.WorkloadNames() {
		ws, _ := runner.WorkloadByName(app)
		var bundles []*workload.Workload
		var cfgs []core.Config
		for seed := uint64(1); seed <= 3; seed++ {
			cfg, err := runner.Enhanced.Config(seed)
			if err != nil {
				b.Fatal(err)
			}
			bundles = append(bundles, ws.Gen(seed))
			cfgs = append(cfgs, cfg)
		}
		for _, compile := range []bool{false, true} {
			name := app + "/link"
			if compile {
				name += "+compile"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					w, cfg := bundles[i%len(bundles)], cfgs[i%len(cfgs)]
					img, err := linker.Link(w.App, w.Libs, cfg.Linking)
					if err != nil {
						b.Fatal(err)
					}
					if compile {
						cpu.Compile(img, cfg.Hardware.L1I.LineBytes)
					}
				}
			})
		}
	}
}
