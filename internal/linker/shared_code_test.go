package linker_test

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/linker"
	"repro/internal/workload"
)

// TestLinkAllocations: the linker allocates per module and per symbol,
// never per instruction, so a firefox bundle links in fewer than one
// allocation per ten instructions.
func TestLinkAllocations(t *testing.T) {
	w := workload.Firefox(1)
	opts := linker.Options{Mode: linker.BindLazy, ASLR: true, Seed: 1}
	img, err := linker.Link(w.App, w.Libs, opts)
	if err != nil {
		t.Fatal(err)
	}
	instrs := 0
	for _, m := range img.CodeModules() {
		instrs += len(m.Code())
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := linker.Link(w.App, w.Libs, opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations for %d instructions", allocs, instrs)
	if allocs*10 >= float64(instrs) {
		t.Errorf("Link made %.0f allocations for %d instructions, want fewer than one per ten", allocs, instrs)
	}
}

// TestForkChurnSharesCodeConcurrently runs forks of one master at
// once: churning forks unload and reload plugins (so their CPUs
// recompile from their private module tables) while sibling forks
// compile and run from the master's shared module code.  Every fork
// must count exactly what the same job counts on a fresh link, and the
// master's code must end shared and untouched.  Run under -race (make
// race), it also checks that nothing writes the shared code.
func TestForkChurnSharesCodeConcurrently(t *testing.T) {
	const seed, warm, measure = 3, 4, 40
	w := workload.PluginServer(seed)
	still := *w
	still.Churn = nil
	cfg := core.Enhanced(seed)

	// job drives sys through the workload's request stream; churn
	// selects whether the plugins rotate.
	job := func(sys *core.System, churn bool) (cpu.Counters, error) {
		wl := &still
		if churn {
			wl = w
		}
		d := workload.NewDriver(wl, sys, workload.DriverSeed(seed))
		if err := d.Warmup(warm); err != nil {
			return cpu.Counters{}, err
		}
		if _, err := d.Run(measure); err != nil {
			return cpu.Counters{}, err
		}
		if churn && d.Churned() == 0 {
			t.Error("churning job rotated no plugin")
		}
		return sys.Counters(), nil
	}
	want := map[bool]cpu.Counters{}
	for _, churn := range []bool{false, true} {
		sys, err := w.NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want[churn], err = job(sys, churn); err != nil {
			t.Fatal(err)
		}
	}

	master, err := linker.Link(w.App, w.Libs, cfg.Linking)
	if err != nil {
		t.Fatal(err)
	}
	type snap struct {
		code []linker.Placed // the slice itself, compared by identity
		copy []linker.Placed
	}
	before := map[*linker.Module]snap{}
	for _, m := range master.CodeModules() {
		before[m] = snap{m.Code(), slices.Clone(m.Code())}
	}
	prog := cpu.Compile(master, cfg.Hardware.L1I.LineBytes)

	const forks = 4
	imgs := make([]*linker.Image, forks)
	for i := range imgs {
		imgs[i] = master.Fork() // forks of one master are serialised
	}
	got := make([]cpu.Counters, forks)
	errs := make([]error, forks)
	var wg sync.WaitGroup
	for i, img := range imgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sys := core.NewSystemFromImage(img, cfg)
			churn := i%2 == 0
			p := prog
			if !churn {
				p = cpu.Compile(img, cfg.Hardware.L1I.LineBytes)
			}
			if errs[i] = sys.CPU().SetProgram(p); errs[i] == nil {
				got[i], errs[i] = job(sys, churn)
			}
		}()
	}
	wg.Wait()
	for i := range imgs {
		churn := i%2 == 0
		if errs[i] != nil {
			t.Fatalf("fork %d (churn %v): %v", i, churn, errs[i])
		}
		if got[i] != want[churn] {
			t.Errorf("fork %d (churn %v): counters %+v, want %+v", i, churn, got[i], want[churn])
		}
		if churn && imgs[i].Generation() == 0 {
			t.Errorf("fork %d churned without moving its generation", i)
		}
	}

	if mods := master.CodeModules(); len(mods) != len(before) {
		t.Fatalf("master has %d live modules, had %d", len(mods), len(before))
	}
	for _, m := range master.CodeModules() {
		b, ok := before[m]
		if !ok {
			t.Fatalf("master module %s replaced", m.Name)
		}
		if c := m.Code(); len(c) != len(b.code) || &c[0] != &b.code[0] || !slices.Equal(c, b.copy) {
			t.Errorf("master module %s: code no longer the shared, untouched slice", m.Name)
		}
	}
}
