package workload

import (
	"fmt"

	"repro/internal/linker"
	"repro/internal/objfile"
)

// ChurnSlot is one library module that rotates through generations at
// runtime.  Every generation must carry the same module name and export
// the same symbol set (bodies differ), so a reload rebinds callers
// rather than breaking them; generation 0 must also appear in
// Workload.Libs so the initial link brings the module up.
type ChurnSlot struct {
	Name string
	Gens []*objfile.Object
}

// ChurnPlan describes a deterministic dlclose/dlopen schedule the
// driver applies to the live image between requests.  Every Every-th
// request (counted across warmup, exact and sampled phases alike) one
// slot — round-robin over Slots — is unloaded and its next generation
// loaded in place.  Demand selects demand-driven loading: reloaded
// module pages map lazily on first touch and each first touch costs a
// page fault.
//
// The schedule is a pure function of request count, so two systems
// driven with the same seed see bit-identical churn and remain
// comparable.  All GOT traffic from the unload/reload goes through
// cpu.LinkerStore, which snoops the ABTB exactly like guest stores.
type ChurnPlan struct {
	Every  int
	Demand bool
	Slots  []ChurnSlot
}

// Churned reports how many unload/reload rotations this driver has
// applied so far.
func (d *Driver) Churned() int { return d.rotations }

// churnTick advances the churn schedule by one request.  On a rotation
// boundary it unloads the due slot and loads its next generation; the
// CPU recompiles against the new image generation at its next Run or
// FastForward.
func (d *Driver) churnTick() error {
	p := d.w.Churn
	if p == nil || p.Every <= 0 || len(p.Slots) == 0 {
		return nil
	}
	d.churnOps++
	if d.churnOps%p.Every != 0 {
		return nil
	}
	if d.slotGen == nil {
		d.slotGen = make([]int, len(p.Slots))
	}
	s := d.rotations % len(p.Slots)
	d.rotations++
	slot := p.Slots[s]
	d.slotGen[s] = (d.slotGen[s] + 1) % len(slot.Gens)

	c := d.sys.CPU()
	img := d.sys.Image()
	if err := img.Unload(slot.Name, c.LinkerStore); err != nil {
		return fmt.Errorf("churn: unload %s: %w", slot.Name, err)
	}
	opts := linker.LoadOptions{Demand: p.Demand, Write: c.LinkerStore}
	if _, err := img.Load(slot.Gens[d.slotGen[s]], opts); err != nil {
		return fmt.Errorf("churn: load %s gen %d: %w", slot.Name, d.slotGen[s], err)
	}
	return nil
}
