// Command tracedump is the simulator's pintool (§4.3): it runs a
// workload on the base system, records every library call through a
// PLT trampoline, and dumps the per-trampoline profile — address,
// symbol, call count — together with the ABTB working-set curve that
// Figure 5 is built from.
//
// With -timeline it instead dumps the phase-resolved counter series
// (internal/timeline) sampled while the requests run: per-interval
// deltas of every microarchitectural counter, as JSON or CSV — the
// same format GET /v1/jobs/{id}/timeline serves, for offline use
// without a dlsimd process.
//
// With -compiled it dumps the compiled trace of the linked image
// instead (internal/cpu.Compile): the one-time lowering every CPU's
// Run loop replays — superblock coverage, RLE fetch-run
// compression, threaded successor edges, and the largest superblocks
// with their owning modules.
//
// Usage:
//
//	tracedump [-workload apache] [-requests N] [-top N] [-seed N]
//	tracedump -timeline [-interval N] [-format json|csv] [...]
//	tracedump -compiled [-top N] [...]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/timeline"
	"repro/internal/workload"
)

func main() {
	wl := flag.String("workload", "apache", "apache | firefox | memcached | mysql")
	requests := flag.Int("requests", 200, "requests to trace")
	top := flag.Int("top", 30, "trampolines (or -compiled superblocks) to list")
	seed := flag.Uint64("seed", 1, "simulation seed")
	tl := flag.Bool("timeline", false, "dump the sampled counter timeline instead of the trampoline profile")
	interval := flag.Uint64("interval", 0, "timeline sample interval in retired instructions (0 = default 64Ki)")
	format := flag.String("format", "json", "timeline output format: json | csv")
	compiled := flag.Bool("compiled", false, "dump the linked image's compiled trace instead of running it")
	flag.Parse()

	var err error
	switch {
	case *compiled:
		err = runCompiled(*wl, *top, *seed)
	case *tl:
		err = runTimeline(*wl, *requests, *seed, *interval, *format)
	default:
		err = run(*wl, *requests, *top, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracedump:", err)
		os.Exit(1)
	}
}

// runCompiled compiles the linked image's instruction stream and dumps
// the result: the compile-time view the kernel replays, without
// executing a single request.
func runCompiled(wl string, top int, seed uint64) error {
	sys, _, err := setup(wl, seed)
	if err != nil {
		return err
	}
	img := sys.Image()
	cfg := core.Base(seed)
	prog := cpu.Compile(img, cfg.Hardware.L1I.LineBytes)
	st := prog.Stats()

	fmt.Printf("workload=%s line=%dB instructions=%d\n\n", wl, prog.LineBytes(), st.Instructions)
	fmt.Printf("threaded successor edges     %d\n", st.Threaded)
	fmt.Printf("direct calls                 %d (%d through a PLT trampoline, annotated at compile time)\n",
		st.DirectCalls, st.PLTCalls)
	fmt.Printf("superblocks                  %d totalling %d block instructions (entry chains overlap; %.2f per stream instr)\n",
		st.Blocks, st.BlockInstrs, float64(st.BlockInstrs)/float64(st.Instructions))
	fmt.Printf("segments                     %d (%.2f instrs/segment)\n",
		st.Segments, float64(st.BlockInstrs)/float64(max(st.Segments, 1)))
	fmt.Printf("fetch runs                   %d L1I + %d I-TLB (%.2fx compression vs per-instruction fetch)\n",
		st.L1IRuns, st.ITLBRuns, float64(st.BlockInstrs)/float64(max(st.L1IRuns, 1)))
	fmt.Printf("trampoline-body instructions %d inside blocks\n\n", st.PLTInstrs)

	blocks := prog.Blocks()
	sort.Slice(blocks, func(i, j int) bool {
		if blocks[i].Instrs != blocks[j].Instrs {
			return blocks[i].Instrs > blocks[j].Instrs
		}
		return blocks[i].StartPC < blocks[j].StartPC
	})
	fmt.Printf("%-5s %-18s %-20s %-7s %-5s %s\n", "rank", "start pc", "module", "instrs", "segs", "plt")
	for i, b := range blocks {
		if i >= top {
			fmt.Printf("... %d more\n", len(blocks)-top)
			break
		}
		mod := "?"
		if m := img.ModuleOf(b.StartPC); m != nil {
			mod = m.Name
		}
		fmt.Printf("%-5d %#-18x %-20s %-7d %-5d %d\n", i+1, b.StartPC, mod, b.Instrs, b.Segs, b.PLT)
	}
	return nil
}

// runTimeline replays the workload with an interval sampler attached
// for the request phase (warmup is excluded, mirroring the service's
// measure-window discipline) and writes the series to stdout.
func runTimeline(wl string, requests int, seed, interval uint64, format string) error {
	if format != "json" && format != "csv" {
		return fmt.Errorf("unknown timeline format %q (want json or csv)", format)
	}
	sys, d, err := setup(wl, seed)
	if err != nil {
		return err
	}
	if err := d.Warmup(20); err != nil {
		return err
	}
	col := timeline.NewCollector(interval, timeline.DefaultMaxPoints)
	col.Attach(sys.CPU())
	if _, err := d.Run(requests); err != nil {
		col.Close()
		return err
	}
	s := col.Close()
	if s == nil {
		return fmt.Errorf("no instructions retired; nothing to sample")
	}
	if format == "csv" {
		return timeline.WriteCSV(os.Stdout, s)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// setup builds the (system, driver) pair both modes share.
func setup(wl string, seed uint64) (*core.System, *workload.Driver, error) {
	gens := map[string]func(uint64) *workload.Workload{
		"apache": workload.Apache, "firefox": workload.Firefox,
		"memcached": workload.Memcached, "mysql": workload.MySQL,
	}
	gen, ok := gens[wl]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", wl)
	}
	w := gen(seed)
	sys, err := w.NewSystem(core.Base(seed))
	if err != nil {
		return nil, nil, err
	}
	return sys, workload.NewDriver(w, sys, seed+17), nil
}

func run(wl string, requests, top int, seed uint64) error {
	sys, d, err := setup(wl, seed)
	if err != nil {
		return err
	}
	if err := d.Warmup(20); err != nil {
		return err
	}
	if _, err := d.Run(requests); err != nil {
		return err
	}

	rec := sys.LifetimeRecorder()
	img := sys.Image()
	fmt.Printf("workload=%s requests=%d library calls=%d distinct trampolines=%d\n\n",
		wl, requests, rec.Total(), rec.Distinct())

	ranked := rec.Ranked()
	fmt.Printf("%-5s %-18s %-28s %s\n", "rank", "plt slot", "symbol", "calls")
	for i, tc := range ranked {
		if i >= top {
			fmt.Printf("... %d more\n", len(ranked)-top)
			break
		}
		mod := "?"
		if m := img.ModuleOf(tc.Slot); m != nil {
			mod = m.Name
		}
		fmt.Printf("%-5d %#-18x %-28s %d\n", i+1, tc.Slot,
			mod+"→"+img.TrampolineSym(tc.Slot), tc.Count)
	}

	fmt.Println("\nABTB working set (LRU stack-distance analysis):")
	fmt.Printf("%-10s %s\n", "entries", "calls skipped")
	sizes := []int{4, 16, 64, 256, 1024, 4096}
	curve := rec.SkipCurveFromDistances(sizes)
	for i, n := range sizes {
		fmt.Printf("%-10d %.1f%%\n", n, curve[i]*100)
	}
	fmt.Printf("\nworking sets: 75%% of skippable calls fit in %d entries; 99%% in %d\n",
		rec.WorkingSet(0.75), rec.WorkingSet(0.99))
	return nil
}
