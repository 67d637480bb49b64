// Package cpu implements the trace-driven processor model that
// executes linked images and produces the paper's measurements.
//
// The model is a functional fetch/execute/retire pipeline with a
// cycle-cost account, not a cycle-accurate out-of-order core: the
// paper's results are counter deltas (cache misses, TLB misses,
// branch mispredictions per kilo-instruction) and the latency shifts
// those deltas imply, which a functional simulator with real
// set-associative structures reproduces.
//
// Per instruction the CPU performs, in order:
//
//	fetch:   I-TLB translation and L1I access over the instruction's
//	         byte range; branch prediction for control flow (BTB for
//	         targets, gshare for directions, RAS for returns).
//	execute: architectural semantics — memory accesses through the
//	         D-TLB and L1D, stack pushes/pops, GOT reads by PLT
//	         trampolines, the lazy resolver, conditional outcomes.
//	retire:  branch resolution with the ABTB hook (§3.2): if the
//	         resolved target of a call hits the ABTB, the mapped
//	         library-function address is treated as the correct
//	         target, the predictor is trained to it, and the
//	         trampoline is skipped; every retired store is snooped
//	         against the ABTB's Bloom filter.
//
// All dynamic behaviour is a pure function of (pc, per-pc execution
// count, seed), so the same image executes identically under every
// hardware configuration — the property that makes Base-vs-Enhanced
// comparisons exact.
package cpu

import (
	"fmt"

	"repro/internal/abtb"
	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/linker"
	"repro/internal/mem"
	"repro/internal/tlb"
)

// Config selects the hardware configuration.
type Config struct {
	// ABTB, when non-nil, enables the paper's mechanism ("Enhanced").
	// Nil models the base system.
	ABTB *abtb.Config

	Branch branch.Config

	L1I, L1D, L2 cache.Config
	ITLB, DTLB   tlb.Config

	// MispredictPenalty is the pipeline-flush cost in cycles.
	MispredictPenalty int

	// FetchBubblePenalty is the cost of a fetch redirect for a
	// direct branch whose target was absent from the BTB (computed
	// at decode, far cheaper than a full flush).
	FetchBubblePenalty int

	// ResolverInstrs and ResolverLoads model the dynamic linker's
	// lazy resolution work: the number of ld.so instructions executed
	// and the number of data touches over the linker's tables.
	ResolverInstrs int
	ResolverLoads  int

	// PageFaultPenalty is the cycle cost of a demand-paging fault on
	// first touch of a lazily-mapped library page (trap, map, resume).
	// It is only charged for images with demand-loaded modules, so
	// configurations without churn are unaffected by its value.
	PageFaultPenalty int

	// SharedL2, when non-nil, is used as the second-level cache
	// instead of a private one built from the L2 config — the
	// organisation of the paper's Xeon E5450, where cores share the
	// 12 MiB last-level cache.  The smp package uses it to build
	// multi-core clusters.
	SharedL2 *cache.Cache

	// Seed drives conditional-branch outcomes and load-address
	// sweeps.
	Seed uint64
}

// DefaultConfig returns a configuration approximating the paper's
// Xeon E5450 testbed, with the ABTB disabled (base system).
func DefaultConfig() Config {
	return Config{
		Branch: branch.DefaultConfig(),
		L1I:    cache.Config{Name: "L1I", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, HitLatency: 0, MissPenalty: 8},
		L1D:    cache.Config{Name: "L1D", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, HitLatency: 0, MissPenalty: 8},
		L2:     cache.Config{Name: "L2", SizeBytes: 12 << 20, LineBytes: 64, Ways: 24, HitLatency: 4, MissPenalty: 180},
		ITLB:   tlb.Config{Name: "ITLB", Entries: 128, Ways: 4, MissPenalty: 30},
		DTLB:   tlb.Config{Name: "DTLB", Entries: 256, Ways: 4, MissPenalty: 30},

		MispredictPenalty:  15,
		FetchBubblePenalty: 3,
		ResolverInstrs:     240,
		ResolverLoads:      40,
		PageFaultPenalty:   1200,
	}
}

// EnhancedConfig returns DefaultConfig with the paper's headline ABTB
// (256 entries, Bloom-filtered).
func EnhancedConfig() Config {
	c := DefaultConfig()
	a := abtb.DefaultConfig()
	c.ABTB = &a
	return c
}

// Counters is a snapshot of the CPU's measurement state.
type Counters struct {
	Instructions uint64 // retired architectural instructions
	Cycles       uint64

	TrampInstrs uint64 // retired instructions inside PLT sections
	TrampCalls  uint64 // calls resolving to a PLT slot
	TrampSkips  uint64 // of those, skipped via ABTB redirect

	Loads, Stores uint64

	Branches    uint64
	Mispredicts uint64
	// Mispredict decomposition: conditional direction/target, return,
	// indirect branch (trampolines, function pointers, resolver), and
	// call-target redirects (BTB conflicts and ABTB substitutions).
	MispredCond, MispredRet, MispredIndirect, MispredCall uint64
	FetchBubbles                                          uint64

	Resolutions uint64 // lazy symbol resolutions executed

	L1IAccesses, L1IMisses   uint64
	L1DAccesses, L1DMisses   uint64
	L2Accesses, L2Misses     uint64
	ITLBAccesses, ITLBMisses uint64
	DTLBAccesses, DTLBMisses uint64

	BTBEvictions  uint64
	ABTBRedirects uint64
	ABTBFlushes   uint64
}

// Sub returns c - prev, for windowed measurements.
func (c Counters) Sub(prev Counters) Counters {
	return Counters{
		MispredCond:     c.MispredCond - prev.MispredCond,
		MispredRet:      c.MispredRet - prev.MispredRet,
		MispredIndirect: c.MispredIndirect - prev.MispredIndirect,
		MispredCall:     c.MispredCall - prev.MispredCall,
		Instructions:    c.Instructions - prev.Instructions,
		Cycles:          c.Cycles - prev.Cycles,
		TrampInstrs:     c.TrampInstrs - prev.TrampInstrs,
		TrampCalls:      c.TrampCalls - prev.TrampCalls,
		TrampSkips:      c.TrampSkips - prev.TrampSkips,
		Loads:           c.Loads - prev.Loads,
		Stores:          c.Stores - prev.Stores,
		Branches:        c.Branches - prev.Branches,
		Mispredicts:     c.Mispredicts - prev.Mispredicts,
		FetchBubbles:    c.FetchBubbles - prev.FetchBubbles,
		Resolutions:     c.Resolutions - prev.Resolutions,
		L1IAccesses:     c.L1IAccesses - prev.L1IAccesses,
		L1IMisses:       c.L1IMisses - prev.L1IMisses,
		L1DAccesses:     c.L1DAccesses - prev.L1DAccesses,
		L1DMisses:       c.L1DMisses - prev.L1DMisses,
		L2Accesses:      c.L2Accesses - prev.L2Accesses,
		L2Misses:        c.L2Misses - prev.L2Misses,
		ITLBAccesses:    c.ITLBAccesses - prev.ITLBAccesses,
		ITLBMisses:      c.ITLBMisses - prev.ITLBMisses,
		DTLBAccesses:    c.DTLBAccesses - prev.DTLBAccesses,
		DTLBMisses:      c.DTLBMisses - prev.DTLBMisses,
		BTBEvictions:    c.BTBEvictions - prev.BTBEvictions,
		ABTBRedirects:   c.ABTBRedirects - prev.ABTBRedirects,
		ABTBFlushes:     c.ABTBFlushes - prev.ABTBFlushes,
	}
}

// Add returns c + d, the inverse of Sub — used to total windowed
// measurements (sampled simulation sums its per-window deltas).
func (c Counters) Add(d Counters) Counters {
	return Counters{
		MispredCond:     c.MispredCond + d.MispredCond,
		MispredRet:      c.MispredRet + d.MispredRet,
		MispredIndirect: c.MispredIndirect + d.MispredIndirect,
		MispredCall:     c.MispredCall + d.MispredCall,
		Instructions:    c.Instructions + d.Instructions,
		Cycles:          c.Cycles + d.Cycles,
		TrampInstrs:     c.TrampInstrs + d.TrampInstrs,
		TrampCalls:      c.TrampCalls + d.TrampCalls,
		TrampSkips:      c.TrampSkips + d.TrampSkips,
		Loads:           c.Loads + d.Loads,
		Stores:          c.Stores + d.Stores,
		Branches:        c.Branches + d.Branches,
		Mispredicts:     c.Mispredicts + d.Mispredicts,
		FetchBubbles:    c.FetchBubbles + d.FetchBubbles,
		Resolutions:     c.Resolutions + d.Resolutions,
		L1IAccesses:     c.L1IAccesses + d.L1IAccesses,
		L1IMisses:       c.L1IMisses + d.L1IMisses,
		L1DAccesses:     c.L1DAccesses + d.L1DAccesses,
		L1DMisses:       c.L1DMisses + d.L1DMisses,
		L2Accesses:      c.L2Accesses + d.L2Accesses,
		L2Misses:        c.L2Misses + d.L2Misses,
		ITLBAccesses:    c.ITLBAccesses + d.ITLBAccesses,
		ITLBMisses:      c.ITLBMisses + d.ITLBMisses,
		DTLBAccesses:    c.DTLBAccesses + d.DTLBAccesses,
		DTLBMisses:      c.DTLBMisses + d.DTLBMisses,
		BTBEvictions:    c.BTBEvictions + d.BTBEvictions,
		ABTBRedirects:   c.ABTBRedirects + d.ABTBRedirects,
		ABTBFlushes:     c.ABTBFlushes + d.ABTBFlushes,
	}
}

// IntervalSample is a cumulative snapshot of the CPU's measurement
// state taken at an interval-sampling boundary (see SetSampler).  It
// carries the full Counters set plus ABTB/Bloom detail that is kept
// out of Counters so the golden aggregate-counter set stays frozen:
// insertions into the ABTB, Bloom-filter store snoops (lookups), and
// snoops that hit the filter and flushed the table (true GOT stores
// plus false positives), and the count of retired GOT stores
// performed by the resolver.
//
// Values are running totals since the last ResetStats; consumers
// difference consecutive samples to obtain per-interval deltas.
type IntervalSample struct {
	Counters Counters

	ABTBInserts    uint64 // entries installed into the ABTB
	BloomLookups   uint64 // retired stores snooped against the Bloom filter
	BloomFlushHits uint64 // snoops that hit the filter and flushed (incl. false positives)
	GOTStores      uint64 // retired linker stores into the GOT (resolver + runtime load/unload)
	PageFaults     uint64 // demand-paging faults on first touch of lazily-mapped library pages
}

// execPage holds per-PC dynamic execution counts for one
// instruction-index page, indexed by the PC's in-page byte offset.
// Hanging the counters off the fetch page (allocated lazily, only for
// pages whose instructions consult their counts) turns the per-retire
// count bump from a map operation into an array increment.
type execPage [mem.PageSize]uint64

// pageMemoSize is the size (a power of two) of the CPU's direct-mapped
// fetch-page memo, which caches instruction-index pages and their
// counter pages by page number.  Call-heavy code ping-pongs between a
// handful of pages (caller, PLT, callee), so this absorbs nearly all
// page switches without a map probe.
const pageMemoSize = 128

type pageMemoEntry struct {
	pn     uint64
	page   *linker.InstrPage // nil marks an empty memo slot
	counts *execPage
}

// pageMemoIdx spreads page numbers across the memo.  Text pages from
// different modules can share low bits (module bases are aligned), so
// a straight mask would thrash; a golden-ratio multiply decorrelates
// them.
func pageMemoIdx(pn uint64) uint64 {
	return (pn * 0x9e3779b97f4a7c15) >> (64 - 7) // log2(pageMemoSize) == 7
}

// CPU executes one linked image.
type CPU struct {
	cfg Config
	img *linker.Image
	mem *mem.Memory // the image's data memory, cached at construction

	l1i, l1d, l2 *cache.Cache
	itlb, dtlb   *tlb.TLB
	bp           *branch.Predictor
	ab           *abtb.ABTB // nil in the base system

	sp uint64

	// Fetch memo: the instruction-index page of the last fetch, and
	// that page's execution counters (nil until first bump).
	// Sequential execution stays on one page for dozens of
	// instructions, so page-crossing map lookups amortise to nothing.
	fetchPageNum uint64
	fetchPage    *linker.InstrPage
	fetchCounts  *execPage
	pageMemo     [pageMemoSize]pageMemoEntry

	// Per-PC dynamic execution counts, kept only for instructions
	// whose behaviour depends on them (conditional branches and
	// swept loads/stores), paged like the fetch index.  The
	// interpreter bumps them here; the compiled path keeps them in
	// counts and spills them here when its program is replaced.
	execPages map[uint64]*execPage

	// Per-trampoline call counts, including skipped ones, indexed by
	// the image's dense trampoline numbering (see
	// linker.Image.TrampolineIndex); feeds Tables 2-3 and Figures 4-5.
	trampCounts []uint64

	// TraceLibCall, when set, is invoked for every call that resolves
	// to a PLT slot, with the slot address.  The trace package uses
	// it to record trampoline streams for offline working-set
	// analysis (Figure 5).
	TraceLibCall func(slot uint64)

	// TraceStore, when set, is invoked with the address of every
	// retired store.  The smp package uses it to broadcast coherence
	// invalidations to the other cores' ABTBs (§3.1).
	TraceStore func(addr uint64)

	// Interval sampling (SetSampler): when onSample is non-nil, Run
	// invokes it each time retired instructions cross nextSampleAt,
	// then advances nextSampleAt by sampleEvery.  The check rides the
	// Run loop's existing per-step budget comparison — a single
	// precomputed limit — so the disabled path is bit-identical to a
	// build without sampling and adds no per-instruction work.
	// sampleOrigin anchors the absolute boundary grid: every boundary
	// is sampleOrigin + k*sampleEvery, including after a mid-run
	// interval change (see SetSampleInterval).
	sampleEvery  uint64
	sampleOrigin uint64
	nextSampleAt uint64
	onSample     func(IntervalSample)

	// prog, when non-nil, is the compiled-trace program for the image
	// (see Compile/SetProgram): Run replays the dense branch-threaded
	// instruction array instead of interpreting via per-PC page
	// lookups.  The compiled path is bit-identical to the interpreted
	// one.  counts holds its execution counts, indexed by the
	// program's counter slots (execPages holds them while no program
	// is installed; SetProgram moves them between the two).
	prog    *Program
	counts  []uint64
	idxMemo [pageMemoSize]idxMemoEntry

	// gotStores counts retired linker stores into the GOT (lazy
	// resolutions plus runtime load/unload rebinds).  It is
	// deliberately not a Counters field: the golden-counter test
	// freezes that set, and timeline samples carry it separately.
	gotStores uint64

	// Demand-driven loading state (see linker.Image.TouchPage):
	// pageFaults counts first-touch faults on lazily-mapped library
	// pages (outside Counters, like gotStores); demand arms the
	// fetch-side touch check and is re-derived at every Run entry.
	// memoGen is the image generation the fetch/index memos were built
	// against — runtime Load/Unload replaces instruction pages, so
	// stale memos would fetch freed code.
	pageFaults uint64
	demand     bool
	memoGen    uint64

	c Counters
}

// New constructs a CPU for the image.  Configuration errors panic:
// hardware geometry is fixed by the experiment definitions.
func New(img *linker.Image, cfg Config) *CPU {
	l2 := cfg.SharedL2
	if l2 == nil {
		l2 = cache.New(cfg.L2, nil)
	}
	c := &CPU{
		cfg:         cfg,
		img:         img,
		mem:         img.Memory(),
		l2:          l2,
		l1i:         cache.New(cfg.L1I, l2),
		l1d:         cache.New(cfg.L1D, l2),
		itlb:        tlb.New(cfg.ITLB),
		dtlb:        tlb.New(cfg.DTLB),
		bp:          branch.New(cfg.Branch),
		execPages:   make(map[uint64]*execPage),
		trampCounts: make([]uint64, img.Trampolines()),
	}
	if cfg.ABTB != nil {
		c.ab = abtb.New(*cfg.ABTB)
	}
	return c
}

// Image returns the image the CPU executes.
func (c *CPU) Image() *linker.Image { return c.img }

// Enhanced reports whether the ABTB mechanism is active.
func (c *CPU) Enhanced() bool { return c.ab != nil }

// ABTB returns the ABTB, or nil for the base system.
func (c *CPU) ABTB() *abtb.ABTB { return c.ab }

// RunResult summarises one Run.
type RunResult struct {
	Instructions uint64
	Cycles       uint64
}

// ErrNoInstruction is returned (wrapped) when execution reaches an
// address with no decoded instruction — a wild jump or a fall-through
// off the end of a function.
var ErrNoInstruction = fmt.Errorf("cpu: execution reached unmapped code")

// Run executes from the entry address until a Halt retires, returning
// the instructions and cycles consumed by this run.  maxInstrs bounds
// runaway execution (0 means a generous default).
//
// On error — budget exhaustion or a decode/resolve failure — Run
// returns the partial instruction and cycle counts consumed so far
// alongside the error, so callers can account for truncated work.
// The budget is checked before each step and a single step can retire
// more than one instruction: a Resolve retires the resolver's whole
// footprint, so the returned count may overshoot maxInstrs by up to
// Config.ResolverInstrs+1 instructions (+1 more with the §3.4
// explicit-invalidate variant).
func (c *CPU) Run(entry uint64, maxInstrs uint64) (RunResult, error) {
	if maxInstrs == 0 {
		maxInstrs = 100_000_000
	}
	c.syncChurn()
	if c.prog != nil {
		return c.runCompiled(entry, maxInstrs)
	}
	start := c.c
	// The loop stops at limit = min(budget end, next sample boundary):
	// one comparison per step whether or not sampling is enabled, so
	// the timeline-off path does exactly the work it did before
	// sampling existed.  Sample boundaries persist across Run calls
	// (nextSampleAt is an absolute retired-instruction count), so a
	// measure window made of many short runs samples on one grid.
	budgetEnd := start.Instructions + maxInstrs
	limit := budgetEnd
	if c.onSample != nil && c.nextSampleAt < limit {
		limit = c.nextSampleAt
	}
	c.sp = c.img.StackTop() - 64
	pc := entry
	for {
		if c.c.Instructions >= limit {
			if c.c.Instructions >= budgetEnd {
				return c.runDelta(start), fmt.Errorf("cpu: instruction budget %d exhausted at pc %#x", maxInstrs, pc)
			}
			c.takeSample()
			limit = budgetEnd
			if c.nextSampleAt < limit {
				limit = c.nextSampleAt
			}
			continue
		}
		next, halted, err := c.step(pc)
		if err != nil {
			return c.runDelta(start), err
		}
		if halted {
			return c.runDelta(start), nil
		}
		pc = next
	}
}

// takeSample emits one interval sample and advances the boundary past
// the current instruction count.  A single step can retire hundreds of
// instructions (a Resolve), so one crossing may cover several
// boundaries; exactly one sample is emitted and the skipped intervals
// are visible to consumers as a larger instruction delta.
func (c *CPU) takeSample() {
	c.onSample(c.IntervalSnapshot())
	for c.nextSampleAt <= c.c.Instructions {
		c.nextSampleAt += c.sampleEvery
	}
}

// SetSampler enables interval sampling: fn is invoked from Run each
// time retired instructions cross a boundary, every instructions
// apart, with a cumulative IntervalSample.  The first boundary is
// every instructions from the current count, so callers attach the
// sampler immediately after ResetStats to sample a measurement window
// from zero.  every==0 or fn==nil disables sampling.
//
// fn runs synchronously inside Run; it must not call back into the
// CPU other than SetSampleInterval.
func (c *CPU) SetSampler(every uint64, fn func(IntervalSample)) {
	if every == 0 || fn == nil {
		c.sampleEvery, c.nextSampleAt, c.onSample = 0, 0, nil
		return
	}
	c.sampleEvery = every
	c.onSample = fn
	c.sampleOrigin = c.c.Instructions
	c.nextSampleAt = c.sampleOrigin + every
}

// SetSampleInterval changes the sampling interval for subsequent
// boundaries without disturbing the current one.  Collectors use it
// from inside the sample callback when they compact: after merging
// adjacent points they double the interval so the series stays
// bounded.  No-op when sampling is disabled or every is zero.
//
// The re-arm stays on the absolute grid anchored at SetSampler time:
// the next boundary is the first sampleOrigin + k*every strictly past
// the current instruction count, so a collector that compacted mid-run
// emits the same boundaries a fresh collector at the wider interval
// would.  (A relative re-arm from the current count would drift off
// the grid by the boundary-crossing overshoot.)
func (c *CPU) SetSampleInterval(every uint64) {
	if c.onSample != nil && every != 0 {
		c.sampleEvery = every
		c.nextSampleAt = c.sampleOrigin + ((c.c.Instructions-c.sampleOrigin)/every+1)*every
	}
}

// SampleInterval returns the active sampling interval in instructions,
// or 0 when sampling is disabled.
func (c *CPU) SampleInterval() uint64 {
	if c.onSample == nil {
		return 0
	}
	return c.sampleEvery
}

// IntervalSnapshot returns the current cumulative sample: the full
// counter set plus the ABTB/Bloom totals that live outside Counters.
// Collectors call it directly at the end of a measurement window to
// flush the final partial interval.
func (c *CPU) IntervalSnapshot() IntervalSample {
	c.syncCounters()
	s := IntervalSample{Counters: c.c, GOTStores: c.gotStores, PageFaults: c.pageFaults}
	if c.ab != nil {
		s.ABTBInserts = c.ab.Inserts()
		s.BloomLookups = c.ab.StoreSnoops()
		s.BloomFlushHits = c.ab.FlushingStores()
	}
	return s
}

// runDelta returns the instructions and cycles retired since start.
func (c *CPU) runDelta(start Counters) RunResult {
	return RunResult{
		Instructions: c.c.Instructions - start.Instructions,
		Cycles:       c.c.Cycles - start.Cycles,
	}
}

// RunSymbol resolves a function symbol and runs from it.
func (c *CPU) RunSymbol(sym string, maxInstrs uint64) (RunResult, error) {
	entry, ok := c.img.Symbol(sym)
	if !ok {
		return RunResult{}, fmt.Errorf("cpu: unknown entry symbol %q", sym)
	}
	return c.Run(entry, maxInstrs)
}

// step retires one instruction (or a call plus a skipped trampoline)
// and returns the next PC.
func (c *CPU) step(pc uint64) (next uint64, halted bool, err error) {
	in := c.fetch(pc)
	if in == nil {
		return 0, false, fmt.Errorf("%w: pc %#x", ErrNoInstruction, pc)
	}
	size := uint64(in.Size)

	// ---- Fetch ----
	if c.demand {
		c.touchFetch(pc, size)
	}
	c.c.Cycles += uint64(c.itlb.AccessRange(pc, size))
	c.c.Cycles += uint64(c.l1i.AccessRange(pc, size))

	// Branch prediction at fetch.
	var predicted uint64
	var predValid bool
	var predTaken bool
	switch in.Op {
	case isa.Call, isa.CallInd, isa.Jmp, isa.JmpMem, isa.Resolve:
		predicted, predValid = c.bp.PredictTarget(pc)
		if in.Op.IsCall() {
			c.bp.PushReturn(pc + size)
		}
	case isa.JmpCond:
		predTaken = c.bp.PredictCond(pc)
		if predTaken {
			predicted, predValid = c.bp.PredictTarget(pc)
		} else {
			predicted, predValid = pc+size, true
		}
	case isa.Ret:
		predicted, predValid = c.bp.PredictReturn()
	}

	// ---- Execute ----
	if in.PLT {
		c.c.TrampInstrs++
	}
	c.c.Instructions++
	c.c.Cycles++ // base CPI of 1

	var actual uint64 // resolved next PC for control flow
	switch in.Op {
	case isa.Halt:
		c.retireBreak()
		c.syncCounters()
		return 0, true, nil

	case isa.Nop, isa.ALU:
		// Simple register-only instructions may be trampoline glue
		// (ARM's address-forming adds) within the pattern window.
		if c.ab != nil {
			c.ab.OnRetireOther(pc, in.Size)
		}
		return pc + size, false, nil

	case isa.Load:
		addr := in.EffAddr(pc, c.bumpN(pc))
		c.dataRead(addr)
		c.retireBreak()
		return pc + size, false, nil

	case isa.Store:
		addr := in.EffAddr(pc, c.bumpN(pc))
		c.dataWrite(addr, in.Val)
		c.retireBreak()
		return pc + size, false, nil

	case isa.Push:
		c.sp -= 8
		c.dataWrite(c.sp, in.Val)
		c.retireBreak()
		return pc + size, false, nil

	case isa.Call:
		actual = in.Target
		c.sp -= 8
		c.dataWrite(c.sp, pc+size)

	case isa.CallInd:
		actual = c.dataRead(in.Mem)
		c.sp -= 8
		c.dataWrite(c.sp, pc+size)

	case isa.Jmp:
		actual = in.Target

	case isa.JmpCond:
		taken := in.CondTaken(pc, c.bumpN(pc), c.cfg.Seed)
		if taken {
			actual = in.Target
		} else {
			actual = pc + size
		}
		c.c.Branches++
		switch {
		case taken != predTaken:
			c.c.Mispredicts++
			c.c.MispredCond++
			c.c.Cycles += uint64(c.cfg.MispredictPenalty)
		case taken && !predValid:
			// Direction right but no BTB target: redirect at decode.
			c.c.FetchBubbles++
			c.c.Cycles += uint64(c.cfg.FetchBubblePenalty)
		case taken && predicted != actual:
			c.c.Mispredicts++
			c.c.MispredCond++
			c.c.Cycles += uint64(c.cfg.MispredictPenalty)
		}
		c.bp.UpdateCond(pc, taken)
		if taken {
			c.bp.UpdateTarget(pc, actual)
		}
		c.retireBreak()
		return actual, false, nil

	case isa.JmpMem:
		actual = c.dataRead(in.Mem)

	case isa.Ret:
		actual = c.dataRead(c.sp)
		c.sp += 8

	case isa.Resolve:
		return c.execResolve(pc, predicted, predValid)

	default:
		return 0, false, fmt.Errorf("cpu: unexecutable opcode %v at %#x", in.Op, pc)
	}

	// ---- Retire: branch resolution with the ABTB hook ----
	effective := actual
	skipped := false
	if in.Op.IsCall() {
		if idx := c.img.TrampolineIndex(actual); idx >= 0 {
			c.c.TrampCalls++
			c.trampCounts[idx]++
			if c.TraceLibCall != nil {
				c.TraceLibCall(actual)
			}
		}
		if c.ab != nil {
			if target, hit := c.ab.Lookup(actual); hit {
				effective = target
				skipped = true
				c.c.TrampSkips++
			}
		}
	}

	c.c.Branches++
	if !predValid || predicted != effective {
		if (in.Op == isa.Call || in.Op == isa.Jmp) && !skipped {
			// Direct branches recover at decode unless the ABTB
			// redirected them somewhere the decoder cannot know.
			c.c.FetchBubbles++
			c.c.Cycles += uint64(c.cfg.FetchBubblePenalty)
		} else {
			c.c.Mispredicts++
			c.c.Cycles += uint64(c.cfg.MispredictPenalty)
			switch {
			case skipped || in.Op == isa.Call:
				c.c.MispredCall++
			case in.Op == isa.Ret:
				c.c.MispredRet++
			default:
				c.c.MispredIndirect++
			}
		}
	}
	if in.Op != isa.Ret {
		// Returns are predicted by the RAS, not the BTB.
		c.bp.UpdateTarget(pc, effective)
	}

	// ABTB retire-time population (§3.2).  Only indirect *jumps*
	// qualify as the pattern's second half: an indirect call pushes a
	// return address, so skipping it would corrupt the call stack —
	// the hardware distinguishes the opcodes at retire.
	if c.ab != nil {
		if in.Op.IsIndirectBranch() {
			memAddr := uint64(0)
			if in.Op == isa.JmpMem {
				memAddr = in.Mem
			}
			c.ab.OnRetireIndirectBranch(pc, actual, memAddr)
		}
		if in.Op.IsCall() {
			c.ab.OnRetireCall(actual)
		} else if !in.Op.IsIndirectBranch() {
			c.ab.BreakPattern() // direct jumps are never glue
		}
	}

	return effective, false, nil
}

// syncChurn re-arms per-run state that runtime library churn can
// change between Run calls: when the image generation moved, the
// fetch-page and compiled-index memos are dropped (their page objects
// may describe freed code), the per-trampoline counter array grows to
// cover dense indices appended by Load, and the demand-paging check is
// armed iff unmapped pages exist.  For unchurned images this is two
// comparisons per Run.
func (c *CPU) syncChurn() {
	c.demand = c.img.HasDemandPages()
	if g := c.img.Generation(); g != c.memoGen {
		c.memoGen = g
		c.fetchPageNum, c.fetchPage, c.fetchCounts = 0, nil, nil
		c.pageMemo = [pageMemoSize]pageMemoEntry{}
		c.idxMemo = [pageMemoSize]idxMemoEntry{}
		if n := len(c.img.TrampolineAddrs()); n > len(c.trampCounts) {
			grown := make([]uint64, n)
			copy(grown, c.trampCounts)
			c.trampCounts = grown
		}
	}
}

// touchFetch charges demand-paging faults for the instruction bytes
// [pc, pc+size): the first touch of a demand-mapped page traps to the
// loader, which maps it (Mururu et al.'s demand-driven loading).
func (c *CPU) touchFetch(pc, size uint64) {
	for pn := pc >> mem.PageShift; pn <= (pc+size-1)>>mem.PageShift; pn++ {
		c.demandTouch(pn)
	}
}

// demandTouch records a fetch from page pn, charging a fault on the
// first touch of a demand-mapped page and disarming the check once no
// unmapped pages remain.
func (c *CPU) demandTouch(pn uint64) {
	if c.img.TouchPage(pn) {
		c.pageFaults++
		c.c.Cycles += uint64(c.cfg.PageFaultPenalty)
		if !c.img.HasDemandPages() {
			c.demand = false
		}
	}
}

// PageFaults returns the demand-paging faults taken since the last
// ResetStats.  Like gotStores it lives outside Counters so the golden
// aggregate-counter set stays frozen.
func (c *CPU) PageFaults() uint64 { return c.pageFaults }

// LinkerStore is the runtime dynamic linker's store primitive (the
// production linker.StoreFunc passed to Image.Load/Unload): a retired
// store that flows through the D-TLB, D-cache and the ABTB's Bloom
// snoop exactly like the lazy resolver's GOT update — the mechanism
// that makes dlclose tombstones flush stale trampoline mappings.  In
// the §3.4 explicit-invalidate variant (no Bloom watching stores) the
// modified loader executes the invalidate instruction instead.
func (c *CPU) LinkerStore(addr, val uint64) {
	c.dataWrite(addr, val)
	c.gotStores++
	if c.ab != nil && c.ab.Config().ExplicitInvalidate {
		c.ab.Invalidate()
	}
}

// fetch returns the decoded instruction at pc (nil if unmapped),
// memoising the containing index page and its execution-counter page:
// sequential execution stays on one page for dozens of instructions.
func (c *CPU) fetch(pc uint64) *isa.Instr {
	pn := pc >> mem.PageShift
	if pn != c.fetchPageNum || c.fetchPage == nil {
		if !c.fetchSwitch(pn, pc) {
			return nil
		}
	}
	return c.fetchPage[pc&(mem.PageSize-1)]
}

// fetchSwitch re-points the fetch memo at pn's index page, consulting
// the image and counter maps only on a page-memo miss.
func (c *CPU) fetchSwitch(pn, pc uint64) bool {
	c.fetchPageNum = pn
	m := &c.pageMemo[pageMemoIdx(pn)]
	if m.pn == pn && m.page != nil {
		c.fetchPage, c.fetchCounts = m.page, m.counts
		return true
	}
	pg := c.img.InstrPageAt(pc)
	c.fetchPage = pg
	if pg == nil {
		c.fetchCounts = nil
		return false
	}
	cnt := c.execPages[pn] // nil until the page first bumps
	c.fetchCounts = cnt
	*m = pageMemoEntry{pn: pn, page: pg, counts: cnt}
	return true
}

// execResolve models the lazy dynamic linker invocation reached
// through PLT0 (§2): read the pushed module ID and relocation index,
// perform the binding work, store the resolved address into the GOT
// (snooped by the ABTB), and jump to the function.
func (c *CPU) execResolve(pc, predicted uint64, predValid bool) (uint64, bool, error) {
	modID := c.dataRead(c.sp)
	relocIdx := c.dataRead(c.sp + 8)
	c.sp += 16

	gotAddr, funcAddr, err := c.img.Resolve(modID, relocIdx)
	if err != nil {
		return 0, false, err
	}
	c.c.Resolutions++

	// The resolver's own footprint: ld.so executes a few hundred
	// instructions and walks its symbol tables.
	base, sz := c.img.LinkerData()
	for i := 0; i < c.cfg.ResolverLoads; i++ {
		addr := base + isa.DetHash(uint64(relocIdx), uint64(i), modID)%(sz-8)
		c.dataRead(addr &^ 7)
	}
	c.c.Instructions += uint64(c.cfg.ResolverInstrs)
	c.c.Cycles += uint64(c.cfg.ResolverInstrs)

	// The GOT store that redirects future trampoline executions.
	c.dataWrite(gotAddr, funcAddr)
	c.gotStores++
	// In the §3.4 variant there is no Bloom filter watching that
	// store; the modified resolver executes the architecturally
	// visible ABTB-invalidate instruction instead.
	if c.ab != nil && c.ab.Config().ExplicitInvalidate {
		c.ab.Invalidate()
		c.c.Instructions++
		c.c.Cycles++
	}

	// The resolver's final indirect jump to the bound function; it is
	// effectively never predicted correctly.
	c.c.Branches++
	if !predValid || predicted != funcAddr {
		c.c.Mispredicts++
		c.c.MispredIndirect++
		c.c.Cycles += uint64(c.cfg.MispredictPenalty)
	}
	c.bp.UpdateTarget(pc, funcAddr)
	if c.ab != nil {
		// Preceded by pushes, so no call→indirect-branch pattern.
		c.ab.BreakPattern()
	}
	return funcAddr, false, nil
}

// dataRead performs a data-memory read through the D-TLB and D-cache.
func (c *CPU) dataRead(addr uint64) uint64 {
	c.c.Loads++
	c.c.Cycles += uint64(c.dtlb.Access(addr))
	c.c.Cycles += uint64(c.l1d.Access(addr))
	return c.mem.Read64(addr)
}

// dataWrite performs a data-memory write through the D-TLB and
// D-cache, snooping the ABTB's Bloom filter as the coherence point
// does (§3.1).
func (c *CPU) dataWrite(addr uint64, v uint64) {
	c.c.Stores++
	c.c.Cycles += uint64(c.dtlb.Access(addr))
	c.c.Cycles += uint64(c.l1d.Access(addr))
	c.mem.Write64(addr, v)
	if c.ab != nil {
		c.ab.SnoopStore(addr)
	}
	if c.TraceStore != nil {
		c.TraceStore(addr)
	}
}

// retireBreak informs the ABTB pattern detector that an instruction
// that can never be trampoline glue retired.
func (c *CPU) retireBreak() {
	if c.ab != nil {
		c.ab.BreakPattern()
	}
}

// bumpN returns the current execution count of pc and increments it.
// pc is always the PC of the instruction currently being stepped, so
// its counter page is the memoized fetch page's — an array increment,
// allocated lazily the first time a page's instruction consults its
// count.
func (c *CPU) bumpN(pc uint64) uint64 {
	p := c.fetchCounts
	if p == nil {
		pn := pc >> mem.PageShift
		p = new(execPage)
		c.execPages[pn] = p
		c.fetchCounts = p
		if m := &c.pageMemo[pageMemoIdx(pn)]; m.pn == pn && m.page != nil {
			m.counts = p
		}
	}
	n := p[pc&(mem.PageSize-1)]
	p[pc&(mem.PageSize-1)] = n + 1
	return n
}

// ContextSwitch models an OS context switch: untagged structures
// (TLBs, predictor, and — per §3.3 — the ABTB without ASIDs) are
// flushed.
func (c *CPU) ContextSwitch(asid uint64) {
	c.itlb.Flush()
	c.dtlb.Flush()
	c.bp.Flush()
	if c.ab != nil {
		c.ab.SwitchContext(asid)
	}
}

// InvalidateABTB models the §3.4 explicit-invalidate instruction.
func (c *CPU) InvalidateABTB() {
	if c.ab != nil {
		c.ab.Invalidate()
	}
}

// CoherenceInvalidate models an invalidation arriving from the cache
// coherence subsystem for addr — another core wrote the line.  The
// paper requires the ABTB's Bloom filter to snoop these exactly like
// local stores (§3.1: "or an invalidation for such an address is
// received from the coherence subsystem"), so a GOT update by any
// core flushes every core's ABTB.  It returns whether a flush
// occurred.
func (c *CPU) CoherenceInvalidate(addr uint64) bool {
	if c.ab == nil {
		return false
	}
	return c.ab.SnoopStore(addr)
}

// syncCounters folds substructure statistics into the snapshot.
func (c *CPU) syncCounters() {
	c.c.L1IAccesses = c.l1i.Accesses()
	c.c.L1IMisses = c.l1i.Misses()
	c.c.L1DAccesses = c.l1d.Accesses()
	c.c.L1DMisses = c.l1d.Misses()
	c.c.L2Accesses = c.l2.Accesses()
	c.c.L2Misses = c.l2.Misses()
	c.c.ITLBAccesses = c.itlb.Accesses()
	c.c.ITLBMisses = c.itlb.Misses()
	c.c.DTLBAccesses = c.dtlb.Accesses()
	c.c.DTLBMisses = c.dtlb.Misses()
	c.c.BTBEvictions = c.bp.BTBEvictions()
	if c.ab != nil {
		c.c.ABTBRedirects = c.ab.Redirects()
		c.c.ABTBFlushes = c.ab.Flushes()
	}
}

// Counters returns a snapshot of all measurement counters.
func (c *CPU) Counters() Counters {
	c.syncCounters()
	return c.c
}

// TrampFreq returns a copy of the per-trampoline call counts (PLT
// slot address -> calls, skipped or executed) accumulated since the
// last ResetStats.
func (c *CPU) TrampFreq() map[uint64]uint64 {
	addrs := c.img.TrampolineAddrs()
	out := make(map[uint64]uint64)
	for i, n := range c.trampCounts {
		if n != 0 {
			// += not =: after unload/reload churn, a reused slot
			// address appears under both its old and new dense index.
			out[addrs[i]] += n
		}
	}
	return out
}

// ResetStats zeroes every measurement counter while preserving all
// microarchitectural state (cache contents, predictor training, ABTB
// mappings) and architectural state; used to exclude warmup.
func (c *CPU) ResetStats() {
	c.c = Counters{}
	c.gotStores = 0
	c.pageFaults = 0
	c.l1i.ResetStats()
	c.l1d.ResetStats() // resets shared L2 twice; harmless
	c.itlb.ResetStats()
	c.dtlb.ResetStats()
	c.bp.ResetStats()
	if c.ab != nil {
		c.ab.ResetStats()
	}
	for i := range c.trampCounts {
		c.trampCounts[i] = 0
	}
}
