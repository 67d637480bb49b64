// Package tlb models translation lookaside buffers.
//
// TLBs cache virtual-page translations; the simulator only needs their
// hit/miss behaviour (and the page-walk penalty on a miss), because
// the paper measures I-TLB and D-TLB misses per kilo-instruction.
// PLT trampolines pressure the I-TLB (sparse PLT pages) and the GOT
// loads pressure the D-TLB (sparse GOT pages); skipping trampolines
// removes both.
package tlb

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/setassoc"
)

// Config describes a TLB.
type Config struct {
	Name        string
	Entries     int
	Ways        int
	MissPenalty int // page-walk cost in cycles
}

// Validate reports an error for an inconsistent configuration.
func (c Config) Validate() error {
	if c.Entries <= 0 || c.Ways <= 0 {
		return fmt.Errorf("tlb %q: non-positive geometry", c.Name)
	}
	sets := c.Entries / c.Ways
	if sets*c.Ways != c.Entries || sets&(sets-1) != 0 {
		return fmt.Errorf("tlb %q: %d entries / %d ways is not a power-of-two set count", c.Name, c.Entries, c.Ways)
	}
	return nil
}

// TLB is a set-associative translation cache keyed by virtual page
// number.
type TLB struct {
	cfg Config
	t   *setassoc.Table[struct{}]
}

// New constructs a TLB, panicking on invalid configuration.
func New(cfg Config) *TLB {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &TLB{cfg: cfg, t: setassoc.New[struct{}](cfg.Entries/cfg.Ways, cfg.Ways)}
}

// Access translates the page containing addr, returning the penalty in
// cycles (0 on a hit, the page-walk cost on a miss) and filling the
// TLB.
func (t *TLB) Access(addr uint64) int {
	return t.access(mem.PageNum(addr), 1)
}

// access performs n consecutive translations of vpn with one probe;
// only the first can walk.
func (t *TLB) access(vpn uint64, n int) int {
	if t.t.AccessRun(vpn, n, struct{}{}) {
		return 0
	}
	return t.cfg.MissPenalty
}

// AccessRange translates every page overlapped by [addr, addr+size).
// Almost all accesses fit one page, so that case skips the loop.
func (t *TLB) AccessRange(addr, size uint64) int {
	if size == 0 {
		size = 1
	}
	first, last := mem.PageNum(addr), mem.PageNum(addr+size-1)
	if first == last {
		return t.access(first, 1)
	}
	pen := 0
	for vpn := first; vpn <= last; vpn++ {
		pen += t.access(vpn, 1)
	}
	return pen
}

// AccessRepeatPage performs n consecutive translations of the page
// with virtual page number vpn and returns the summed penalty.  The
// first translation is an ordinary access (it may walk and fill); the
// remaining n-1 are guaranteed hits.  Counter and LRU effects are
// bit-identical to n sequential accesses, at the cost of one probe.
// Hits cost zero cycles, so the sum is just the first translation's
// outcome.  The compiled-trace replay loop uses it for runs of
// straight-line fetches within one page.
func (t *TLB) AccessRepeatPage(vpn uint64, n int) int {
	if n <= 0 {
		return 0
	}
	return t.access(vpn, n)
}

// Flush invalidates all entries (context switch without ASIDs).
func (t *TLB) Flush() { t.t.Clear() }

// Accesses returns the number of translations requested.
func (t *TLB) Accesses() uint64 { return t.t.Lookups() }

// Misses returns the number of translations that walked the page
// table.
func (t *TLB) Misses() uint64 { return t.t.Misses() }

// Config returns the TLB's configuration.
func (t *TLB) Config() Config { return t.cfg }

// ResetStats zeroes counters, preserving contents.
func (t *TLB) ResetStats() { t.t.ResetStats() }

// Defaults approximating the Xeon E5450: 128-entry 4-way I-TLB,
// 256-entry 4-way D-TLB, with a page walk costing tens of cycles.
func DefaultITLB() *TLB {
	return New(Config{Name: "ITLB", Entries: 128, Ways: 4, MissPenalty: 30})
}

func DefaultDTLB() *TLB {
	return New(Config{Name: "DTLB", Entries: 256, Ways: 4, MissPenalty: 30})
}
