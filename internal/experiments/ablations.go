package experiments

import (
	"fmt"
	"strings"

	"repro/internal/abtb"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/linker"
	"repro/internal/smp"
	"repro/internal/workload"
)

// ablation budgets: smaller than the headline runs, since each design
// point is a full simulation.
const (
	ablationWarm    = 40
	ablationMeasure = 120
)

// pooledWorkload fetches the generated bundle for (name, s.Seed)
// through the runner's artifact pool, generating it at most once per
// suite no matter how many ablations and figures share the workload
// (results keep no workload, so the CDF figures read their request
// classes from here too).  When the suite's runner has pooling
// disabled it falls back to direct generation.
func (s *Suite) pooledWorkload(name string, gen func(uint64) *workload.Workload) *workload.Workload {
	if p := s.pool.ArtifactPool(); p != nil {
		w, _ := p.Workload(name, gen, s.Seed)
		return w
	}
	return gen(s.Seed)
}

// pooledSystem builds a private System for w under cfg through the
// artifact pool: design points that share linking options (every
// hardware-only sweep, e.g. the seven Bloom sizes of A1) share one
// linked master and receive copy-on-write forks, so the link step
// runs once per distinct link product instead of once per point.
// w must come from pooledWorkload (its Name keys the image cache).
func (s *Suite) pooledSystem(w *workload.Workload, cfg core.Config) (*core.System, error) {
	if p := s.pool.ArtifactPool(); p != nil {
		sys, _, err := p.ImageSystem(w.Name, s.Seed, w, cfg)
		return sys, err
	}
	return w.NewSystem(cfg)
}

// BloomPoint is one Bloom-filter size design point (ablation A1).
type BloomPoint struct {
	Bits           int
	FlushingStores uint64  // stores whose filter hit forced a flush
	Flushes        uint64  // total ABTB clears
	SkipPct        float64 // trampoline calls skipped
}

// AblationBloomSize sweeps the GOT Bloom filter size on Apache.  An
// undersized filter false-positives on ordinary stores and repeatedly
// flushes the ABTB, eroding the skip rate; the paper's ~1Kbit filter
// makes flushes vanishingly rare after startup.
func (s *Suite) AblationBloomSize() ([]BloomPoint, error) {
	w := s.pooledWorkload("apache", workload.Apache)
	var out []BloomPoint
	for _, bits := range []int{512, 1024, 2048, 4096, 8192, 16384, 32768} {
		cfg := core.Enhanced(s.Seed)
		a := abtb.DefaultConfig()
		a.BloomBits = bits
		cfg.Hardware.ABTB = &a
		sys, err := s.pooledSystem(w, cfg)
		if err != nil {
			return nil, err
		}
		d := workload.NewDriver(w, sys, workload.DriverSeed(s.Seed))
		if err := d.Warmup(ablationWarm); err != nil {
			return nil, err
		}
		if _, err := d.Run(ablationMeasure); err != nil {
			return nil, err
		}
		c := sys.Counters()
		skip := 0.0
		if c.TrampCalls > 0 {
			skip = float64(c.TrampSkips) / float64(c.TrampCalls) * 100
		}
		out = append(out, BloomPoint{
			Bits:           bits,
			FlushingStores: sys.CPU().ABTB().FlushingStores(),
			Flushes:        c.ABTBFlushes,
			SkipPct:        skip,
		})
	}
	return out, nil
}

// FormatBloomSweep renders ablation A1.
func FormatBloomSweep(points []BloomPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A1. Bloom filter size vs spurious ABTB flushes (Apache)\n")
	fmt.Fprintf(&b, "%-10s %16s %10s %10s\n", "Bits", "Flushing stores", "Flushes", "Skip")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10d %16d %10d %9.1f%%\n", p.Bits, p.FlushingStores, p.Flushes, p.SkipPct)
	}
	return b.String()
}

// BindingPoint is one linking-mode design point (ablation A2).
type BindingPoint struct {
	Label     string
	MeanUS    float64
	CyclesPKI float64 // cycles per kilo-instruction (inverse IPC)
	TrampPKI  float64
	VsBasePct float64 // mean latency improvement over base
}

// AblationBindingModes compares lazy, eager, static, patched and
// enhanced on the same workload: the paper's framing is that Enhanced
// delivers static-linking performance while remaining dynamic.
func (s *Suite) AblationBindingModes() ([]BindingPoint, error) {
	w := s.pooledWorkload("apache", workload.Apache)
	cfgs := []core.Config{
		core.Base(s.Seed),
		core.Eager(s.Seed),
		core.Static(s.Seed),
		core.Patched(s.Seed),
		core.Enhanced(s.Seed),
	}
	var out []BindingPoint
	var baseMean float64
	for _, cfg := range cfgs {
		sys, err := s.pooledSystem(w, cfg)
		if err != nil {
			return nil, err
		}
		d := workload.NewDriver(w, sys, workload.DriverSeed(s.Seed))
		if err := d.Warmup(ablationWarm); err != nil {
			return nil, err
		}
		samp, err := d.Run(ablationMeasure)
		if err != nil {
			return nil, err
		}
		mean := merged(samp).Mean()
		if cfg.Label == "base" {
			baseMean = mean
		}
		c := sys.Counters()
		out = append(out, BindingPoint{
			Label:     cfg.Label,
			MeanUS:    mean,
			CyclesPKI: float64(c.Cycles) / float64(c.Instructions) * 1000,
			TrampPKI:  core.PKIOf(c).TrampInstrs,
			VsBasePct: (baseMean - mean) / baseMean * 100,
		})
	}
	return out, nil
}

// FormatBindingModes renders ablation A2.
func FormatBindingModes(points []BindingPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A2. Linking modes (Apache; enhanced should approach static)\n")
	fmt.Fprintf(&b, "%-10s %12s %12s %10s %10s\n", "Mode", "Mean (us)", "cyc/kinstr", "trampPKI", "vs base")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10s %12.2f %12.1f %10.2f %+9.2f%%\n",
			p.Label, p.MeanUS, p.CyclesPKI, p.TrampPKI, p.VsBasePct)
	}
	return b.String()
}

// InvalidatePoint compares the Bloom-filtered design with the §3.4
// explicit-invalidate variant (ablation A3).
type InvalidatePoint struct {
	Label        string
	SkipPct      float64
	Flushes      uint64
	StorageBytes int
	MeanUS       float64
}

// AblationExplicitInvalidate runs Apache under both ABTB variants.
func (s *Suite) AblationExplicitInvalidate() ([]InvalidatePoint, error) {
	w := s.pooledWorkload("apache", workload.Apache)
	variants := []struct {
		label string
		cfg   abtb.Config
	}{
		{"bloom", abtb.DefaultConfig()},
		{"explicit", abtb.Config{Entries: 256, Ways: 4, ExplicitInvalidate: true}},
	}
	var out []InvalidatePoint
	for _, v := range variants {
		cfg := core.Enhanced(s.Seed)
		a := v.cfg
		cfg.Hardware.ABTB = &a
		sys, err := s.pooledSystem(w, cfg)
		if err != nil {
			return nil, err
		}
		d := workload.NewDriver(w, sys, workload.DriverSeed(s.Seed))
		if err := d.Warmup(ablationWarm); err != nil {
			return nil, err
		}
		samp, err := d.Run(ablationMeasure)
		if err != nil {
			return nil, err
		}
		c := sys.Counters()
		skip := 0.0
		if c.TrampCalls > 0 {
			skip = float64(c.TrampSkips) / float64(c.TrampCalls) * 100
		}
		out = append(out, InvalidatePoint{
			Label:        v.label,
			SkipPct:      skip,
			Flushes:      c.ABTBFlushes,
			StorageBytes: v.cfg.SizeBytes(),
			MeanUS:       merged(samp).Mean(),
		})
	}
	return out, nil
}

// FormatExplicitInvalidate renders ablation A3.
func FormatExplicitInvalidate(points []InvalidatePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A3. Bloom-filtered vs explicit-invalidate ABTB (Apache)\n")
	fmt.Fprintf(&b, "%-10s %8s %10s %10s %12s\n", "Variant", "Skip", "Flushes", "Storage", "Mean (us)")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10s %7.1f%% %10d %9dB %12.2f\n",
			p.Label, p.SkipPct, p.Flushes, p.StorageBytes, p.MeanUS)
	}
	return b.String()
}

// ContextSwitchPoint is one context-switch policy design point
// (ablation A4).
type ContextSwitchPoint struct {
	Label       string
	SwitchEvery int
	SkipPct     float64
	MeanUS      float64
}

// AblationContextSwitch measures how context-switch frequency affects
// the skip rate with and without ASID tagging (§3.3): the untagged
// ABTB flushes on every switch and must repopulate; the tagged one
// survives.
func (s *Suite) AblationContextSwitch() ([]ContextSwitchPoint, error) {
	w := s.pooledWorkload("memcached", workload.Memcached) // short requests: switches hurt most
	var out []ContextSwitchPoint
	for _, asids := range []bool{false, true} {
		for _, every := range []int{1, 4, 16} {
			cfg := core.Enhanced(s.Seed)
			a := abtb.DefaultConfig()
			a.ASIDs = asids
			cfg.Hardware.ABTB = &a
			sys, err := s.pooledSystem(w, cfg)
			if err != nil {
				return nil, err
			}
			d := workload.NewDriver(w, sys, workload.DriverSeed(s.Seed))
			if err := d.Warmup(ablationWarm); err != nil {
				return nil, err
			}
			// Interleave measurement with simulated context switches:
			// the process is descheduled every `every` requests and
			// other processes run (their ASIDs differ).
			samp := 0.0
			var calls, skips uint64
			n := ablationMeasure
			for i := 0; i < n; i++ {
				if i%every == 0 {
					sys.CPU().ContextSwitch(2) // someone else runs
					sys.CPU().ContextSwitch(1) // we are rescheduled
				}
				res, err := sys.RunOnce(w.Classes[i%len(w.Classes)].Entry)
				if err != nil {
					return nil, err
				}
				samp += core.Micros(res.Cycles)
			}
			c := sys.Counters()
			calls, skips = c.TrampCalls, c.TrampSkips
			skip := 0.0
			if calls > 0 {
				skip = float64(skips) / float64(calls) * 100
			}
			label := "flush"
			if asids {
				label = "asid"
			}
			out = append(out, ContextSwitchPoint{
				Label:       label,
				SwitchEvery: every,
				SkipPct:     skip,
				MeanUS:      samp / float64(n),
			})
		}
	}
	return out, nil
}

// FormatContextSwitch renders ablation A4.
func FormatContextSwitch(points []ContextSwitchPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A4. Context-switch policy (Memcached; switch every N requests)\n")
	fmt.Fprintf(&b, "%-8s %12s %8s %12s\n", "Policy", "Switch every", "Skip", "Mean (us)")
	for _, p := range points {
		fmt.Fprintf(&b, "%-8s %12d %7.1f%% %12.2f\n", p.Label, p.SwitchEvery, p.SkipPct, p.MeanUS)
	}
	return b.String()
}

// ABTBGeometryPoint is one ABTB size run live in the pipeline (a
// cross-check of Figure 5's trace-replay against full simulation).
type ABTBGeometryPoint struct {
	Entries int
	SkipPct float64
	MeanUS  float64
}

// AblationABTBGeometry runs Apache with real ABTBs of increasing size,
// validating the Figure 5 offline replay against the live mechanism.
func (s *Suite) AblationABTBGeometry() ([]ABTBGeometryPoint, error) {
	w := s.pooledWorkload("apache", workload.Apache)
	var out []ABTBGeometryPoint
	for _, entries := range []int{16, 64, 256, 1024} {
		cfg := core.Enhanced(s.Seed)
		a := abtb.DefaultConfig()
		a.Entries = entries
		a.Ways = entries // fully associative at every size, as Figure 5 assumes
		cfg.Hardware.ABTB = &a
		sys, err := s.pooledSystem(w, cfg)
		if err != nil {
			return nil, err
		}
		d := workload.NewDriver(w, sys, workload.DriverSeed(s.Seed))
		if err := d.Warmup(ablationWarm); err != nil {
			return nil, err
		}
		samp, err := d.Run(ablationMeasure)
		if err != nil {
			return nil, err
		}
		c := sys.Counters()
		skip := 0.0
		if c.TrampCalls > 0 {
			skip = float64(c.TrampSkips) / float64(c.TrampCalls) * 100
		}
		out = append(out, ABTBGeometryPoint{
			Entries: entries,
			SkipPct: skip,
			MeanUS:  merged(samp).Mean(),
		})
	}
	return out, nil
}

// FormatABTBGeometry renders the live-geometry sweep.
func FormatABTBGeometry(points []ABTBGeometryPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A5. Live ABTB size sweep (Apache; cross-checks Figure 5)\n")
	fmt.Fprintf(&b, "%-10s %8s %12s\n", "Entries", "Skip", "Mean (us)")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10d %7.1f%% %12.2f\n", p.Entries, p.SkipPct, p.MeanUS)
	}
	return b.String()
}

// PLTStylePoint is one trampoline-flavour design point (ablation A6):
// the paper claims the approach "works on all dynamically linked
// library techniques ... across architectures (e.g., ARM and x86)".
type PLTStylePoint struct {
	Style      string
	Enhanced   bool
	TrampPKI   float64
	SkipPct    float64
	MeanUS     float64
	ImprovePct float64 // vs the same style's base system
}

// AblationPLTStyle runs Memcached with x86-flavoured (one-instruction)
// and ARM-flavoured (three-instruction) trampolines, base vs enhanced.
// ARM's fatter trampolines make the base system pay roughly 3x the
// trampoline instructions, so the ABTB's relative win grows; the ARM
// ABTB needs a 2-instruction pattern window to learn the add-add-ldr
// sequence.
func (s *Suite) AblationPLTStyle() ([]PLTStylePoint, error) {
	w := s.pooledWorkload("memcached", workload.Memcached)
	var out []PLTStylePoint
	for _, style := range []linker.PLTStyle{linker.PLTx86, linker.PLTARM} {
		var baseMean float64
		for _, enhanced := range []bool{false, true} {
			cfg := core.Base(s.Seed)
			cfg.Linking.PLT = style
			if enhanced {
				cfg.Label = "enhanced"
				a := abtb.DefaultConfig()
				if style == linker.PLTARM {
					a.PatternWindow = 2
				}
				hw := cpu.EnhancedConfig()
				hw.Seed = s.Seed
				hw.ABTB = &a
				cfg.Hardware = hw
			}
			sys, err := s.pooledSystem(w, cfg)
			if err != nil {
				return nil, err
			}
			d := workload.NewDriver(w, sys, workload.DriverSeed(s.Seed))
			if err := d.Warmup(ablationWarm); err != nil {
				return nil, err
			}
			samp, err := d.Run(ablationMeasure)
			if err != nil {
				return nil, err
			}
			mean := merged(samp).Mean()
			if !enhanced {
				baseMean = mean
			}
			c := sys.Counters()
			skip := 0.0
			if c.TrampCalls > 0 {
				skip = float64(c.TrampSkips) / float64(c.TrampCalls) * 100
			}
			out = append(out, PLTStylePoint{
				Style:      style.String(),
				Enhanced:   enhanced,
				TrampPKI:   core.PKIOf(c).TrampInstrs,
				SkipPct:    skip,
				MeanUS:     mean,
				ImprovePct: (baseMean - mean) / baseMean * 100,
			})
		}
	}
	return out, nil
}

// FormatPLTStyle renders ablation A6.
func FormatPLTStyle(points []PLTStylePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A6. Trampoline flavour: x86 (1 instr) vs ARM (3 instrs), Memcached\n")
	fmt.Fprintf(&b, "%-6s %-10s %10s %8s %12s %10s\n", "Style", "System", "trampPKI", "Skip", "Mean (us)", "vs base")
	for _, p := range points {
		system := "base"
		if p.Enhanced {
			system = "enhanced"
		}
		fmt.Fprintf(&b, "%-6s %-10s %10.2f %7.1f%% %12.2f %+9.2f%%\n",
			p.Style, system, p.TrampPKI, p.SkipPct, p.MeanUS, p.ImprovePct)
	}
	return b.String()
}

// SMPPoint is one multi-core design point (ablation A7): a threaded
// server on an n-core cluster with a shared L2 and ABTB coherence.
type SMPPoint struct {
	Cores       int
	Enhanced    bool
	MeanUS      float64
	ImprovePct  float64 // vs same-core-count base
	L2MissesPKI float64
}

// AblationSMP scales the threaded Memcached server across core counts,
// base vs enhanced, with per-core ABTBs kept coherent by GOT
// invalidation broadcast (§3.1).
func (s *Suite) AblationSMP() ([]SMPPoint, error) {
	w := s.pooledWorkload("memcached", workload.Memcached)
	var out []SMPPoint
	for _, cores := range []int{1, 2, 4} {
		var baseMean float64
		for _, enhanced := range []bool{false, true} {
			cfg := core.Base(s.Seed)
			if enhanced {
				cfg = core.Enhanced(s.Seed)
			}
			cl, err := smp.New(w, cfg, cores)
			if err != nil {
				return nil, err
			}
			if err := cl.Warmup("handle_GET", ablationWarm*cores); err != nil {
				return nil, err
			}
			samp, err := cl.Serve("handle_GET", ablationMeasure*2)
			if err != nil {
				return nil, err
			}
			mean := samp.Mean()
			if !enhanced {
				baseMean = mean
			}
			c := cl.Counters()
			out = append(out, SMPPoint{
				Cores:       cores,
				Enhanced:    enhanced,
				MeanUS:      mean,
				ImprovePct:  (baseMean - mean) / baseMean * 100,
				L2MissesPKI: float64(c.L2Misses) / float64(c.Instructions) * 1000,
			})
		}
	}
	return out, nil
}

// FormatSMP renders ablation A7.
func FormatSMP(points []SMPPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A7. Multi-core threaded server (Memcached, shared L2, coherent ABTBs)\n")
	fmt.Fprintf(&b, "%-7s %-10s %12s %10s %12s\n", "Cores", "System", "Mean (us)", "vs base", "L2 miss PKI")
	for _, p := range points {
		system := "base"
		if p.Enhanced {
			system = "enhanced"
		}
		fmt.Fprintf(&b, "%-7d %-10s %12.2f %+9.2f%% %12.3f\n",
			p.Cores, system, p.MeanUS, p.ImprovePct, p.L2MissesPKI)
	}
	return b.String()
}
