// Command dlsim runs one workload under one system configuration and
// prints the resulting hardware counters — the building block the
// experiments binary composes.
//
// Usage:
//
//	dlsim [-workload apache] [-system enhanced] [-warm N] [-requests N] [-seed N]
//
// Systems: base (lazy dynamic linking, unmodified CPU), enhanced
// (lazy + ABTB), eager (BIND_NOW), static, patched (§4.3 software
// emulation).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/linker"
	"repro/internal/runner"
	"repro/internal/workload"
)

func main() {
	wl := flag.String("workload", "apache", strings.Join(runner.WorkloadNames(), " | "))
	system := flag.String("system", "base", "base | enhanced | eager | static | patched")
	plt := flag.String("plt", "x86", "trampoline flavour: x86 | arm (paper Fig. 2)")
	warm := flag.Int("warm", 50, "warmup requests")
	requests := flag.Int("requests", 200, "measured requests")
	seed := flag.Uint64("seed", 1, "simulation seed")
	flag.Parse()

	if err := run(*wl, *system, *plt, *warm, *requests, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "dlsim:", err)
		os.Exit(1)
	}
}

func run(wl, system, plt string, warm, requests int, seed uint64) error {
	ws, ok := runner.WorkloadByName(wl)
	if !ok {
		return fmt.Errorf("unknown workload %q", wl)
	}
	cfgs := map[string]func(uint64) core.Config{
		"base": core.Base, "enhanced": core.Enhanced, "eager": core.Eager,
		"static": core.Static, "patched": core.Patched,
	}
	cfg, ok := cfgs[system]
	if !ok {
		return fmt.Errorf("unknown system %q", system)
	}

	conf := cfg(seed)
	switch plt {
	case "x86":
	case "arm":
		switch system {
		case "base":
			conf = core.BaseARM(seed)
		case "enhanced":
			conf = core.EnhancedARM(seed)
		default:
			conf.Linking.PLT = linker.PLTARM
		}
	default:
		return fmt.Errorf("unknown plt flavour %q", plt)
	}

	w := ws.Gen(seed)
	sys, err := w.NewSystem(conf)
	if err != nil {
		return err
	}
	d := workload.NewDriver(w, sys, workload.DriverSeed(seed))
	if err := d.Warmup(warm); err != nil {
		return err
	}
	samples, err := d.Run(requests)
	if err != nil {
		return err
	}

	c := sys.Counters()
	pki := core.PKIOf(c)
	fmt.Printf("workload=%s system=%s seed=%d requests=%d\n\n", wl, system, seed, requests)
	fmt.Printf("instructions        %12d\n", c.Instructions)
	fmt.Printf("cycles              %12d  (IPC %.2f)\n", c.Cycles,
		float64(c.Instructions)/float64(c.Cycles))
	fmt.Printf("tramp instrs        %12d  (%.2f PKI)\n", c.TrampInstrs, pki.TrampInstrs)
	fmt.Printf("tramp calls         %12d  (skipped %d, %.1f%%)\n", c.TrampCalls, c.TrampSkips,
		pct(c.TrampSkips, c.TrampCalls))
	fmt.Printf("L1I misses          %12d  (%.2f PKI)\n", c.L1IMisses, pki.L1IMisses)
	fmt.Printf("ITLB misses         %12d  (%.2f PKI)\n", c.ITLBMisses, pki.ITLBMisses)
	fmt.Printf("L1D misses          %12d  (%.2f PKI)\n", c.L1DMisses, pki.L1DMisses)
	fmt.Printf("DTLB misses         %12d  (%.2f PKI)\n", c.DTLBMisses, pki.DTLBMisses)
	fmt.Printf("branch mispredicts  %12d  (%.2f PKI; cond %d, indirect %d, call %d, ret %d)\n",
		c.Mispredicts, pki.Mispredicts, c.MispredCond, c.MispredIndirect, c.MispredCall, c.MispredRet)
	fmt.Printf("BTB evictions       %12d\n", c.BTBEvictions)
	fmt.Printf("resolutions         %12d\n", c.Resolutions)
	if pf := sys.CPU().PageFaults(); pf > 0 {
		fmt.Printf("page faults         %12d  (demand-driven loading)\n", pf)
	}
	if rot := d.Churned(); rot > 0 {
		fmt.Printf("library rotations   %12d\n", rot)
	}
	if sys.CPU().Enhanced() {
		ab := sys.CPU().ABTB()
		fmt.Printf("ABTB                %12d entries used, %d redirects, %d flushes (%d by stores)\n",
			ab.Len(), ab.Redirects(), ab.Flushes(), ab.FlushingStores())
	}
	fmt.Printf("distinct trampolines %11d  (lifetime, warmup included)\n", sys.LifetimeRecorder().Distinct())

	fmt.Println("\nper-class latency (us):")
	for _, cl := range w.Classes {
		s := samples[cl.Name]
		if s.N() == 0 {
			continue
		}
		fmt.Printf("  %-14s n=%-5d mean=%-9.2f p50=%-9.2f p95=%-9.2f p99=%.2f\n",
			cl.Name, s.N(), s.Mean(), s.Percentile(50), s.Percentile(95), s.Percentile(99))
	}
	return nil
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b) * 100
}
