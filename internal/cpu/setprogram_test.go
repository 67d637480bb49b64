package cpu_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/linker"
	"repro/internal/workload"
)

// TestSetProgramRejectsForeignImage: memcached linked at linker seeds 1
// and 2 has the same instruction count in both layouts but different
// library bases, so only the identity of the code tells them apart.  A
// Program compiled from one layout must not install over the other,
// and must still install on a fork of its own master.
func TestSetProgramRejectsForeignImage(t *testing.T) {
	w := workload.Memcached(1)
	cfg := core.Enhanced(1)
	line := cfg.Hardware.L1I.LineBytes
	link := func(seed uint64) *linker.Image {
		opts := cfg.Linking
		opts.Seed = seed
		img, err := linker.Link(w.App, w.Libs, opts)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	a, b := link(1), link(2)
	pa := cpu.Compile(a, line)
	if n := cpu.Compile(b, line).Instructions(); n != pa.Instructions() {
		t.Fatalf("layouts hold %d and %d instructions; the check needs equal counts", pa.Instructions(), n)
	}
	if a.Modules()[1].Base == b.Modules()[1].Base {
		t.Fatal("layouts share a library base; the check needs different layouts")
	}
	if err := cpu.New(b, cfg.Hardware).SetProgram(pa); err == nil {
		t.Error("a Program compiled from another layout installed without error")
	}
	if err := cpu.New(a.Fork(), cfg.Hardware).SetProgram(pa); err != nil {
		t.Errorf("a Program compiled from the master did not install on its fork: %v", err)
	}
}
