// Compiled traces: the CPU's execution kernel.  Compile makes one pass
// over a linked image's code (its live modules' code slices, walked in
// address order) and lowers it into a dense, branch-threaded
// instruction array that Run replays, so the work that never changes
// for a given image is done once instead of at every retired
// instruction:
//
//   - Instructions are stored in one dense array in PC order, and
//     every statically known successor (fall-through, direct call/jump
//     target) is pre-resolved to an array index, so sequential and
//     direct-branch execution never consults a PC map.
//   - Runs of straight-line simple instructions (Nop/ALU/Load/Store/
//     Push — nothing that touches the predictor) are grouped into
//     superblocks whose I-TLB and L1I fetch traffic is pre-computed as
//     run-length-encoded access runs; replay applies each run with one
//     bulk cache/TLB operation (AccessRepeat/AccessRepeatPage) instead
//     of per-instruction AccessRange calls.
//   - PLT/trampoline classification is annotated at compile time: a
//     direct call's TrampolineIndex is resolved once, and each
//     superblock segment carries its retired-in-PLT instruction count.
//   - Every Load, Store and JmpCond gets a dense execution-counter
//     slot, so the count its effective address or branch outcome
//     depends on is one indexed increment (see install for how the
//     counts survive recompiles).
//
// The host-side layout is dense and pointer-free: superblocks, their
// segments and their fetch runs live in three flat slices in code
// order, addressed by int32 indices, so replaying a block walks
// contiguous memory and the garbage collector never scans a Program.
//
// Block replay is bit-identical to single-step replay of the same
// Program (stepIdx on every instruction) — same counters, same cycle
// account, same sample and budget boundaries, same errors.  Three
// properties make that exact:
//
//   - Superblocks segment at memory operations, so a bulk fetch run
//     that may miss never reorders across a D-side access into the
//     shared L2, and a block is only dispatched when it fits entirely
//     under the loop's current limit (budget or sample boundary);
//     otherwise replay falls back to single-instruction steps, so
//     limits land on the same instruction counts.
//   - The bulk cache/TLB operations replay the single-step access
//     sequence exactly: only the first access of a same-line
//     (same-page) run can miss, so recording that access's address
//     preserves next-level addresses, and the remaining accesses are
//     applied as guaranteed hits with identical counter and LRU
//     effects.
//   - A segment's first fetch run is folded into the block's previous
//     run of the same structure when both name the same page or line.
//     The folded accesses are guaranteed hits, and hits never reach
//     the L2, so moving them ahead of the D-side access between the
//     two changes no state (see addRun).
//
// The single-step semantics themselves are pinned by an independent
// oracle: internal/experiments' golden counters, recorded from an
// earlier kernel.
//
// FastForward, sampled simulation's architectural-only skip path,
// dispatches the same superblocks under the same fit-the-limit rule
// (here, the step budget).  A skipped block replays only its
// architectural work: the demand pages of its I-TLB runs and each
// segment's trailing memory operation; its ALU and Nop instructions are
// never visited (see ffBlock).
//
// A Program is built from the image's module code, which forks share
// with their master, so one compiled Program serves every fork of a
// pooled image (see internal/pool).
package cpu

import (
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/isa"
	"repro/internal/linker"
	"repro/internal/mem"
)

// blockCap bounds superblock length in instructions.  Blocks are only
// dispatched when they fit entirely under the Run loop's limit, so a
// cap keeps the single-step fallback window (and thus the tail of a
// sample interval executed per-instruction) short.
const blockCap = 32

// cinstr is one compiled instruction: the decoded instruction by
// value, its PC, and pre-resolved indices.  It holds no pointer, so
// the code array is one dense block the garbage collector never scans,
// and it is 64 bytes, one host cache line.
type cinstr struct {
	in isa.Instr
	pc uint64

	next     int32 // index of the fall-through (pc+Size), -1 if unmapped
	tgt      int32 // index of in.Target for Call/Jmp/JmpCond, else -1
	trampIdx int32 // TrampolineIndex(in.Target) for direct calls, else -1
	cnt      int32 // execution-counter slot of a Load/Store/JmpCond, else -1
}

// crun is one run-length-encoded fetch access: n consecutive accesses
// to the same L1I line (addr is the first access's byte address) or
// the same page (addr is the virtual page number).
type crun struct {
	addr uint64
	n    int32
}

// seg is a superblock segment: a run of simple instructions whose
// fetch traffic is applied in bulk, optionally ending with one memory
// operation.  Its fetch runs are runs[run : run+nITLB] (I-TLB pages)
// followed by nL1I L1I line runs.
type seg struct {
	firstIdx int32 // code index of the segment's first instruction
	n        int32 // instructions in the segment (incl. trailing mem op)
	nPLT     int32
	memIdx   int32 // code index of the trailing Load/Store/Push, or -1
	run      int32
	nITLB    int32
	nL1I     int32
}

// block is a superblock: up to blockCap straight-line simple
// instructions, entered only at its first instruction, whose segments
// are segs[seg : seg+nSegs].
type block struct {
	endPC  uint64 // PC of the instruction after the block (for the unmapped-fall-through error)
	endIdx int32  // its code index
	nInstr int32
	seg    int32
	nSegs  int32
}

// idxMemoEntry memoises one compiled-index page for the replay loop's
// dynamic-target lookups.
type idxMemoEntry struct {
	pn uint64
	pg *idxPage // nil marks an empty memo slot
}

// idxPage maps a page's in-page byte offsets to code-array indices
// (-1 where no instruction starts).
type idxPage [mem.PageSize]int32

// Program is a compiled trace: the image's instructions as a dense
// branch-threaded array, its superblocks, their segments and fetch runs
// as three flat slices in code order, plus the PC→index pages used for
// dynamic targets.  A Program is immutable after Compile and safe for
// concurrent use by any number of CPUs running forks of the image it
// was compiled from.
type Program struct {
	// mods are the image's live modules at compile time, in address
	// order: the code the program was compiled from.  Forks share
	// them and churn replaces them, so SetProgram compares them by
	// identity.
	mods []*linker.Module

	code []cinstr
	// blockAt[i] is the index in blocks of the superblock starting at
	// code[i], or -1.  Kept apart from code so that dispatching a
	// block reads 4 bytes per instruction, not a cinstr.
	blockAt   []int32
	blocks    []block
	segs      []seg
	runs      []crun
	counters  int // execution-counter slots (see cinstr.cnt)
	pages     map[uint64]*idxPage
	lineBytes int    // L1I line size the fetch runs were compiled for
	gen       uint64 // image generation the trace was compiled against
}

// Instructions returns the number of compiled instructions.
func (p *Program) Instructions() int { return len(p.code) }

// Bytes returns the heap the program holds: its flat slices and its
// index pages.
func (p *Program) Bytes() uint64 {
	return uint64(cap(p.code))*uint64(unsafe.Sizeof(cinstr{})) +
		uint64(cap(p.blockAt))*4 +
		uint64(cap(p.blocks))*uint64(unsafe.Sizeof(block{})) +
		uint64(cap(p.segs))*uint64(unsafe.Sizeof(seg{})) +
		uint64(cap(p.runs))*uint64(unsafe.Sizeof(crun{})) +
		uint64(len(p.pages))*uint64(unsafe.Sizeof(idxPage{}))
}

// LineBytes returns the L1I line size the program was compiled for.
func (p *Program) LineBytes() int { return p.lineBytes }

// Generation returns the image generation (see linker.Image.Generation)
// the program was compiled against.  Runtime Load/Unload bumps the
// image's generation, making older programs stale: SetProgram refuses
// them, and Run and FastForward recompile instead of replaying them.
func (p *Program) Generation() uint64 { return p.gen }

// ProgramStats summarises a compiled trace for tooling (cmd/tracedump
// -compiled): how much of the instruction stream was lowered into
// superblocks, how densely the fetch traffic compressed, and how many
// control-flow edges were threaded at compile time.
type ProgramStats struct {
	Instructions int    // compiled instructions
	Threaded     int    // static successor edges resolved to indices
	Blocks       int    // superblocks
	BlockInstrs  uint64 // instructions covered by some superblock
	Segments     int    // superblock segments
	L1IRuns      int    // RLE L1I fetch runs across all segments
	ITLBRuns     int    // RLE I-TLB page runs across all segments
	PLTInstrs    uint64 // trampoline-body instructions inside blocks
	DirectCalls  int    // direct calls total
	PLTCalls     int    // direct calls annotated with a trampoline index
}

// BlockInfo describes one superblock head for tooling, in PC order.
type BlockInfo struct {
	StartPC uint64
	Instrs  uint64
	Segs    int
	PLT     uint64
}

// Stats walks the program once and returns its summary.
func (p *Program) Stats() ProgramStats {
	st := ProgramStats{
		Instructions: len(p.code),
		Blocks:       len(p.blocks),
		Segments:     len(p.segs),
	}
	for i := range p.code {
		ci := &p.code[i]
		if ci.next >= 0 {
			st.Threaded++
		}
		if ci.tgt >= 0 {
			st.Threaded++
		}
		if ci.in.Op == isa.Call {
			st.DirectCalls++
			if ci.trampIdx >= 0 {
				st.PLTCalls++
			}
		}
	}
	for _, b := range p.blocks {
		st.BlockInstrs += uint64(b.nInstr)
	}
	for _, s := range p.segs {
		st.L1IRuns += int(s.nL1I)
		st.ITLBRuns += int(s.nITLB)
		st.PLTInstrs += uint64(s.nPLT)
	}
	return st
}

// Blocks returns every superblock head in PC order.
func (p *Program) Blocks() []BlockInfo {
	var out []BlockInfo
	for i := range p.code {
		if p.blockAt[i] < 0 {
			continue
		}
		b := &p.blocks[p.blockAt[i]]
		var plt uint64
		for _, s := range p.segs[b.seg : b.seg+b.nSegs] {
			plt += uint64(s.nPLT)
		}
		out = append(out, BlockInfo{StartPC: p.code[i].pc, Instrs: uint64(b.nInstr), Segs: int(b.nSegs), PLT: plt})
	}
	return out
}

// batchable reports whether op can live inside a superblock: simple
// instructions with no control flow and no predictor interaction.
func batchable(op isa.Op) bool {
	switch op {
	case isa.Nop, isa.ALU, isa.Load, isa.Store, isa.Push:
		return true
	}
	return false
}

// Compile lowers the image's code into a Program whose fetch runs are
// pre-computed for the given L1I line size.  It walks the live modules
// in address order straight into the code array: their ranges are
// disjoint and each module's code ascends by PC, so the array is in PC
// order with no sort.  The code is read but never mutated, and because
// forks share it one Program serves the master and every fork.
func Compile(img *linker.Image, l1iLineBytes int) *Program {
	if l1iLineBytes <= 0 || l1iLineBytes&(l1iLineBytes-1) != 0 {
		panic(fmt.Sprintf("cpu: compile with invalid L1I line size %d", l1iLineBytes))
	}
	lineShift := uint(0)
	for 1<<lineShift < l1iLineBytes {
		lineShift++
	}

	mods := img.CodeModules()
	n := 0
	for _, m := range mods {
		n += len(m.Code())
	}
	p := &Program{
		mods:      slices.Clone(mods),
		code:      make([]cinstr, 0, n),
		blockAt:   make([]int32, n),
		pages:     make(map[uint64]*idxPage),
		lineBytes: l1iLineBytes,
		gen:       img.Generation(),
	}
	var pg *idxPage
	pn := ^uint64(0)
	for _, m := range mods {
		for _, pl := range m.Code() {
			i := int32(len(p.code))
			ci := cinstr{in: pl.Instr, pc: pl.PC, next: -1, tgt: -1, trampIdx: -1, cnt: -1}
			switch ci.in.Op {
			case isa.Load, isa.Store, isa.JmpCond:
				ci.cnt = int32(p.counters)
				p.counters++
			}
			p.code = append(p.code, ci)
			p.blockAt[i] = -1
			if pl.PC>>mem.PageShift != pn {
				pn = pl.PC >> mem.PageShift
				if pg = p.pages[pn]; pg == nil {
					pg = new(idxPage)
					for j := range pg {
						pg[j] = -1
					}
					p.pages[pn] = pg
				}
			}
			pg[pl.PC&(mem.PageSize-1)] = i
		}
	}

	indexOf := func(pc uint64) int32 {
		pg := p.pages[pc>>mem.PageShift]
		if pg == nil {
			return -1
		}
		return pg[pc&(mem.PageSize-1)]
	}

	// Successor threading and static-target annotation.
	isTarget := make([]bool, len(p.code))
	for i := range p.code {
		ci := &p.code[i]
		ci.next = indexOf(ci.pc + uint64(ci.in.Size))
		switch ci.in.Op {
		case isa.Call, isa.Jmp, isa.JmpCond:
			ci.tgt = indexOf(ci.in.Target)
			if ci.tgt >= 0 {
				isTarget[ci.tgt] = true
			}
		}
		if ci.in.Op == isa.Call {
			ci.trampIdx = int32(img.TrampolineIndex(ci.in.Target))
		}
	}

	// Superblock formation.  A run is a maximal contiguous stretch of
	// batchable instructions (each falling through to the next array
	// element).  Blocks are emitted at every entry point into a run —
	// the run head, every static branch target inside it — and chained
	// every blockCap instructions from each entry.  Dynamic entry
	// points (return sites, function entries) always follow a
	// non-batchable instruction, so they are run heads.
	for i := 0; i < len(p.code); {
		if !batchable(p.code[i].in.Op) {
			i++
			continue
		}
		// Extend the run [i, e).
		e := i + 1
		for e < len(p.code) && p.code[e-1].next == int32(e) && batchable(p.code[e].in.Op) {
			e++
		}
		for k := i; k < e; k++ {
			if k != i && !isTarget[k] {
				continue
			}
			// Chain blocks from entry point k to the end of the run,
			// stopping where an earlier entry's chain already built
			// them (identical content: a block depends only on its
			// start index and the run end).
			for b0 := k; b0 < e && p.blockAt[b0] < 0; {
				end := min(b0+blockCap, e)
				p.blockAt[b0] = p.buildBlock(b0, end, lineShift)
				b0 = end
			}
		}
		i = e
	}
	return p
}

// buildBlock compiles the superblock covering code[b0:end), appending
// its segments and fetch runs, and returns its index in p.blocks.
// Segments end at memory operations.  Each segment's fetch runs replay
// single-step fetch's exact access sequence, per structure: for each
// instruction, every page overlapped by [pc, pc+Size), and every L1I
// line.
func (p *Program) buildBlock(b0, end int, lineShift uint) int32 {
	last := &p.code[end-1]
	b := block{
		endPC:  last.pc + uint64(last.in.Size),
		endIdx: last.next,
		nInstr: int32(end - b0),
		seg:    int32(len(p.segs)),
	}
	lastITLB, lastL1I := -1, -1 // p.runs index of the block's latest run of each structure
	for s := b0; s < end; {
		e := s + 1
		for e < end && !memOp(p.code[e-1].in.Op) {
			e++
		}
		sg := seg{firstIdx: int32(s), n: int32(e - s), memIdx: -1, run: int32(len(p.runs))}
		if memOp(p.code[e-1].in.Op) {
			sg.memIdx = int32(e - 1)
		}
		for k := s; k < e; k++ {
			ci := &p.code[k]
			if ci.in.PLT {
				sg.nPLT++
			}
			for vpn := mem.PageNum(ci.pc); vpn <= mem.PageNum(ci.pc+uint64(ci.in.Size)-1); vpn++ {
				lastITLB = p.addRun(lastITLB, vpn, 0, &sg.nITLB)
			}
		}
		for k := s; k < e; k++ {
			// Mirror cache.AccessRange: a single-line access records
			// the real byte address; a straddling access records each
			// line's base address.
			pc := p.code[k].pc
			lFirst, lLast := pc>>lineShift, (pc+uint64(p.code[k].in.Size)-1)>>lineShift
			if lFirst == lLast {
				lastL1I = p.addRun(lastL1I, pc, lineShift, &sg.nL1I)
				continue
			}
			for ln := lFirst; ln <= lLast; ln++ {
				lastL1I = p.addRun(lastL1I, ln<<lineShift, lineShift, &sg.nL1I)
			}
		}
		p.segs = append(p.segs, sg)
		s = e
	}
	b.nSegs = int32(len(p.segs)) - b.seg
	p.blocks = append(p.blocks, b)
	return int32(len(p.blocks) - 1)
}

// memOp reports whether op ends a superblock segment.
func memOp(op isa.Op) bool {
	return op == isa.Load || op == isa.Store || op == isa.Push
}

// addRun records one fetch access to addr (a byte address, or for the
// I-TLB the page number itself), given last, the p.runs index of the
// block's latest run of the same structure (-1 if none).  A run records
// its first access's address, because only the first access of a
// same-key run can miss and recurse: an access whose key (addr>>shift)
// matches the latest run extends it, and any other access appends a
// new run, counted in *n.  It returns the new latest run.
//
// The latest run may belong to an earlier segment of the block, so a
// segment's first run folds into it.  No access to that structure
// comes between the two, so the folded accesses are guaranteed hits,
// and a hit never reaches the shared L2: applying them before the
// D-side access that ended the earlier segment changes no state.
func (p *Program) addRun(last int, addr uint64, shift uint, n *int32) int {
	if last >= 0 && p.runs[last].addr>>shift == addr>>shift {
		p.runs[last].n++
		return last
	}
	p.runs = append(p.runs, crun{addr: addr, n: 1})
	*n++
	return len(p.runs) - 1
}

// SetProgram installs a compiled program in place of the one Run would
// compile itself; the pool uses it to share one Program among every
// fork of a master image.  The program must have been compiled from the
// very module code the CPU's image holds (the image itself or the
// master it was forked from), at the image's current generation, for
// the same L1I line size.  The code is compared by identity, so an
// image of another layout is refused even when it holds as many
// instructions.
func (c *CPU) SetProgram(p *Program) error {
	if p == nil {
		return fmt.Errorf("cpu: nil program")
	}
	if p.lineBytes != c.cfg.L1I.LineBytes {
		return fmt.Errorf("cpu: program compiled for %d-byte I-lines, cache has %d-byte lines", p.lineBytes, c.cfg.L1I.LineBytes)
	}
	if p.gen != c.img.Generation() {
		return fmt.Errorf("cpu: program compiled against image generation %d, image is at %d (library churn since compile)",
			p.gen, c.img.Generation())
	}
	if !slices.Equal(p.mods, c.img.CodeModules()) {
		return fmt.Errorf("cpu: program compiled from other code than the image's (not this image or the master it was forked from)")
	}
	c.install(p)
	return nil
}

// install makes p the CPU's program.  The dense counts are the only
// live count store, but a recompile renumbers their slots, so every
// install spills the outgoing program's counts by PC and fills the
// incoming program's slots from them: each PC's count survives churn
// recompiles, even while churn has removed its code.  install also
// drops the index-page memo and grows the per-trampoline counters to
// cover dense indices appended by Load.
func (c *CPU) install(p *Program) {
	c.spillCounts()
	c.prog = p
	c.fillCounts()
	c.idxMemo = [pageMemoSize]idxMemoEntry{}
	if n := len(c.img.TrampolineAddrs()); n > len(c.trampCounts) {
		grown := make([]uint64, n)
		copy(grown, c.trampCounts)
		c.trampCounts = grown
	}
}

// spillCounts writes the installed program's non-zero execution counts
// to the PC-keyed spill map.  While a program is installed the map
// holds the counts it was filled from, which never exceed the dense
// ones, so zero counts need no write.
func (c *CPU) spillCounts() {
	if c.prog == nil {
		return
	}
	for i := range c.prog.code {
		ci := &c.prog.code[i]
		if ci.cnt < 0 || c.counts[ci.cnt] == 0 {
			continue
		}
		if c.spilled == nil {
			c.spilled = make(map[uint64]uint64)
		}
		c.spilled[ci.pc] = c.counts[ci.cnt]
	}
}

// fillCounts sizes the dense counts for the installed program and
// loads each slot from the spill map.
func (c *CPU) fillCounts() {
	c.counts = slices.Grow(c.counts[:0], c.prog.counters)[:c.prog.counters]
	clear(c.counts)
	if len(c.spilled) == 0 {
		return
	}
	for i := range c.prog.code {
		if ci := &c.prog.code[i]; ci.cnt >= 0 {
			c.counts[ci.cnt] = c.spilled[ci.pc]
		}
	}
}

// lookupIdx maps a dynamic target PC to its code-array index (-1 if
// unmapped), memoising the index page.
func (c *CPU) lookupIdx(pc uint64) int32 {
	pn := pc >> mem.PageShift
	m := &c.idxMemo[pageMemoIdx(pn)]
	if m.pn != pn || m.pg == nil {
		pg := c.prog.pages[pn]
		if pg == nil {
			return -1
		}
		*m = idxMemoEntry{pn: pn, pg: pg}
	}
	return m.pg[pc&(mem.PageSize-1)]
}

// bump returns and increments the execution count in slot.
func (c *CPU) bump(slot int32) uint64 {
	n := c.counts[slot]
	c.counts[slot] = n + 1
	return n
}

// execBlock replays one superblock: per segment, the pre-computed
// fetch runs are applied in bulk, counters are advanced once, and the
// trailing memory operation (if any) executes normally.  The ABTB
// pattern hooks are only walked when a call→indirect-branch pattern is
// actually pending at block entry: nothing inside a block retires a
// call, so otherwise every hook call would be a no-op.
func (c *CPU) execBlock(b *block) {
	glue := c.ab != nil && c.ab.PatternPending()
	p := c.prog
	for _, s := range p.segs[b.seg : b.seg+b.nSegs] {
		lat := 0
		runs := p.runs[s.run : s.run+s.nITLB+s.nL1I]
		for _, r := range runs[:s.nITLB] {
			if c.demand {
				c.demandTouch(r.addr)
			}
			lat += c.itlb.AccessRepeatPage(r.addr, int(r.n))
		}
		for _, r := range runs[s.nITLB:] {
			lat += c.l1i.AccessRepeat(r.addr, int(r.n))
		}
		c.c.TrampInstrs += uint64(s.nPLT)
		c.c.Instructions += uint64(s.n)
		c.c.Cycles += uint64(lat) + uint64(s.n)

		if glue {
			nSimple := s.n
			if s.memIdx >= 0 {
				nSimple--
			}
			for k := s.firstIdx; k < s.firstIdx+nSimple; k++ {
				c.ab.OnRetireOther(p.code[k].pc, p.code[k].in.Size)
			}
		}
		if s.memIdx >= 0 {
			mi := &p.code[s.memIdx]
			switch mi.in.Op {
			case isa.Load:
				c.dataLoad(mi.in.EffAddr(mi.pc, c.bump(mi.cnt)))
			case isa.Store:
				c.dataWrite(mi.in.EffAddr(mi.pc, c.bump(mi.cnt)), mi.in.Val)
			case isa.Push:
				c.sp -= 8
				c.dataWrite(c.sp, mi.in.Val)
			}
			if glue {
				c.ab.BreakPattern()
				glue = false // nothing in the block can re-arm it
			}
		}
	}
}

// stepIdx retires one compiled instruction — fetch, branch prediction,
// execute, and retire with the ABTB hook — consuming pre-threaded
// successor indices and returning the next (index, pc) pair.  It also
// serves as the fallback for entering a superblock that does not fit
// under the current limit, which is why it handles the batchable
// opcodes too.
func (c *CPU) stepIdx(ci *cinstr) (nextIdx int32, nextPC uint64, halted bool, err error) {
	in := &ci.in
	pc := ci.pc
	size := uint64(in.Size)

	// ---- Fetch ----
	if c.demand {
		c.touchFetch(pc, size)
	}
	c.c.Cycles += uint64(c.itlb.AccessRange(pc, size))
	c.c.Cycles += uint64(c.l1i.AccessRange(pc, size))

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
	c.c.Cycles++

	var actual uint64
	actualIdx := int32(-1)
	actualKnown := false // actualIdx valid without a lookup
	switch in.Op {
	case isa.Halt:
		c.retireBreak()
		c.syncCounters()
		return 0, 0, true, nil

	case isa.Nop, isa.ALU:
		if c.ab != nil {
			c.ab.OnRetireOther(pc, in.Size)
		}
		return ci.next, pc + size, false, nil

	case isa.Load:
		c.dataLoad(in.EffAddr(pc, c.bump(ci.cnt)))
		c.retireBreak()
		return ci.next, pc + size, false, nil

	case isa.Store:
		c.dataWrite(in.EffAddr(pc, c.bump(ci.cnt)), in.Val)
		c.retireBreak()
		return ci.next, pc + size, false, nil

	case isa.Push:
		c.sp -= 8
		c.dataWrite(c.sp, in.Val)
		c.retireBreak()
		return ci.next, pc + size, false, nil

	case isa.Call:
		actual = in.Target
		actualIdx, actualKnown = ci.tgt, true
		c.sp -= 8
		c.dataWrite(c.sp, pc+size)

	case isa.CallInd:
		actual = c.dataRead(in.Mem)
		c.sp -= 8
		c.dataWrite(c.sp, pc+size)

	case isa.Jmp:
		actual = in.Target
		actualIdx, actualKnown = ci.tgt, true

	case isa.JmpCond:
		taken := in.CondTaken(pc, c.bump(ci.cnt), c.cfg.Seed)
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
			c.retireBreak()
			return ci.tgt, actual, false, nil
		}
		c.retireBreak()
		return ci.next, actual, false, nil

	case isa.JmpMem:
		actual = c.dataRead(in.Mem)

	case isa.Ret:
		actual = c.dataRead(c.sp)
		c.sp += 8

	case isa.Resolve:
		next, rerr := c.execResolve(pc, predicted, predValid)
		if rerr != nil {
			return 0, 0, false, rerr
		}
		return c.lookupIdx(next), next, false, nil

	default:
		return 0, 0, false, fmt.Errorf("cpu: unexecutable opcode %v at %#x", in.Op, pc)
	}

	// ---- Retire: branch resolution with the ABTB hook ----
	effective := actual
	effIdx, effKnown := actualIdx, actualKnown
	skipped := false
	if in.Op.IsCall() {
		tIdx := -1
		if in.Op == isa.Call {
			tIdx = int(ci.trampIdx)
		} else {
			tIdx = c.img.TrampolineIndex(actual)
		}
		if tIdx >= 0 {
			c.c.TrampCalls++
			c.trampCounts[tIdx]++
			if c.TraceLibCall != nil {
				c.TraceLibCall(actual)
			}
		}
		if c.ab != nil {
			if target, hit := c.ab.Lookup(actual); hit {
				effective = target
				effKnown = false
				skipped = true
				c.c.TrampSkips++
			}
		}
	}

	c.c.Branches++
	if !predValid || predicted != effective {
		if (in.Op == isa.Call || in.Op == isa.Jmp) && !skipped {
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
		c.bp.UpdateTarget(pc, effective)
	}

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
			c.ab.BreakPattern()
		}
	}

	if !effKnown {
		effIdx = c.lookupIdx(effective)
	}
	return effIdx, effective, false, nil
}

// FastForward executes from entry with architectural fidelity only:
// memory contents, the stack pointer, per-PC execution counts and lazy
// GOT bindings advance exactly as under detailed simulation, but no
// cache, TLB, predictor or measurement-counter state is touched.  The
// one microarchitectural exception is the ABTB: its Bloom filter
// snoops every skipped store (see ffWrite), because a stale trampoline
// mapping must not survive a skip over the GOT store that would have
// flushed it.  Demand pages touched by skipped fetches are mapped
// silently, with no fault count or penalty (see ffTouch).  Sampled
// simulation uses it to skip between measurement windows at a fraction
// of detailed cost; a detailed run resumed after a fast-forward sees
// the same architectural state it would have seen had every
// instruction been simulated in detail.
//
// Like Run it replays the compiled program, compiling it first when
// needed, and it bounds runaway execution like Run (maxInstrs 0 means
// the same generous default), counting steps instead of retired
// instructions: a Resolve is one step.  Like Run it dispatches a
// superblock as one unit when the whole block fits under the budget
// (see ffBlock); control flow, Resolve and blocks that do not fit are
// stepped one instruction at a time, so an exhausted budget names the
// pc single-stepping would.  It stays apart from stepIdx, which would
// otherwise need a per-instruction branch on the detailed path.
func (c *CPU) FastForward(entry uint64, maxInstrs uint64) error {
	c.syncChurn()
	if maxInstrs == 0 {
		maxInstrs = 100_000_000
	}
	if c.ab != nil {
		// The skipped stretch would have retired pattern-breaking
		// instructions; never let a pre-skip call pair with a
		// post-skip indirect branch.
		c.ab.BreakPattern()
	}
	c.sp = c.img.StackTop() - 64
	pc := entry
	idx := c.lookupIdx(entry)
	code, blockAt, blocks := c.prog.code, c.prog.blockAt, c.prog.blocks
	var steps uint64
	for {
		if idx < 0 {
			return fmt.Errorf("%w: pc %#x", ErrNoInstruction, pc)
		}
		if steps >= maxInstrs {
			return fmt.Errorf("cpu: fast-forward budget %d exhausted at pc %#x", maxInstrs, pc)
		}
		if bi := blockAt[idx]; bi >= 0 {
			if b := &blocks[bi]; steps+uint64(b.nInstr) <= maxInstrs {
				steps += uint64(b.nInstr)
				c.ffBlock(b)
				idx, pc = b.endIdx, b.endPC
				continue
			}
		}
		steps++
		ci := &code[idx]
		in := &ci.in
		if c.demand {
			// Map demand pages as the skipped fetches would, silently:
			// the fault count and penalty are measurement state, which
			// fast-forwarded stretches do not accrue.
			c.ffTouch(pc, uint64(in.Size))
		}
		switch in.Op {
		case isa.Halt:
			return nil
		case isa.Nop, isa.ALU:
			idx, pc = ci.next, pc+uint64(in.Size)
		case isa.Load:
			// The count advances (EffAddr sweeps consume one per
			// execution) but the read has no architectural effect.
			c.bump(ci.cnt)
			idx, pc = ci.next, pc+uint64(in.Size)
		case isa.Store:
			c.ffWrite(in.EffAddr(pc, c.bump(ci.cnt)), in.Val)
			idx, pc = ci.next, pc+uint64(in.Size)
		case isa.Push:
			c.sp -= 8
			c.ffWrite(c.sp, in.Val)
			idx, pc = ci.next, pc+uint64(in.Size)
		case isa.Call:
			c.sp -= 8
			c.ffWrite(c.sp, pc+uint64(in.Size))
			idx, pc = ci.tgt, in.Target
		case isa.CallInd:
			tgt := c.mem.Read64(in.Mem)
			c.sp -= 8
			c.ffWrite(c.sp, pc+uint64(in.Size))
			idx, pc = c.lookupIdx(tgt), tgt
		case isa.Jmp:
			idx, pc = ci.tgt, in.Target
		case isa.JmpCond:
			if in.CondTaken(pc, c.bump(ci.cnt), c.cfg.Seed) {
				idx, pc = ci.tgt, in.Target
			} else {
				idx, pc = ci.next, pc+uint64(in.Size)
			}
		case isa.JmpMem:
			tgt := c.mem.Read64(in.Mem)
			idx, pc = c.lookupIdx(tgt), tgt
		case isa.Ret:
			tgt := c.mem.Read64(c.sp)
			c.sp += 8
			idx, pc = c.lookupIdx(tgt), tgt
		case isa.Resolve:
			modID := c.mem.Read64(c.sp)
			relocIdx := c.mem.Read64(c.sp + 8)
			c.sp += 16
			gotAddr, funcAddr, err := c.img.Resolve(modID, relocIdx)
			if err != nil {
				return err
			}
			// The resolver's GOT store, with the same ABTB visibility
			// the detailed path gives it: Bloom snoop, or the §3.4
			// explicit invalidate.
			c.ffWrite(gotAddr, funcAddr)
			c.gotStores++
			if c.ab != nil && c.ab.Config().ExplicitInvalidate {
				c.ab.Invalidate()
			}
			idx, pc = c.lookupIdx(funcAddr), funcAddr
		default:
			return fmt.Errorf("cpu: unexecutable opcode %v at %#x", in.Op, pc)
		}
	}
}

// ffBlock fast-forwards one superblock, replaying only its
// architectural work.  Per segment, it maps the pages of the segment's
// I-TLB runs while demand pages remain, and performs the trailing
// memory operation: a Load's count bump, a Store's or Push's ffWrite.
// The segment's ALU and Nop instructions are never visited.
//
// The I-TLB runs list every page the block's instructions overlap,
// except that a segment's first run may be folded into an earlier
// segment's run of the same page, which that segment already touched.
// TouchPage is idempotent and fast-forward charges no fault, so the
// pages left pending match single-stepping's.
func (c *CPU) ffBlock(b *block) {
	p := c.prog
	for _, s := range p.segs[b.seg : b.seg+b.nSegs] {
		if c.demand {
			for _, r := range p.runs[s.run : s.run+s.nITLB] {
				c.ffTouchPage(r.addr)
			}
		}
		if s.memIdx < 0 {
			continue
		}
		mi := &p.code[s.memIdx]
		switch mi.in.Op {
		case isa.Load:
			c.bump(mi.cnt)
		case isa.Store:
			c.ffWrite(mi.in.EffAddr(mi.pc, c.bump(mi.cnt)), mi.in.Val)
		case isa.Push:
			c.sp -= 8
			c.ffWrite(c.sp, mi.in.Val)
		}
	}
}

// ffWrite performs a fast-forwarded store: architectural memory only —
// no cache, TLB or counter effects — except that the ABTB's Bloom
// filter snoops it exactly as it snoops every retired store on the
// detailed path.  Stale trampoline mappings must not survive a skip
// over the store that would have flushed them (and detailed-path
// false-positive flushes must reproduce too, or sampled ABTB state
// diverges from exact).
func (c *CPU) ffWrite(addr, val uint64) {
	c.mem.Write64(addr, val)
	if c.ab != nil {
		c.ab.SnoopStore(addr)
	}
}

// ffTouch maps demand pages overlapped by the fetch of [pc, pc+size)
// without fault accounting (see FastForward).
func (c *CPU) ffTouch(pc, size uint64) {
	for pn := pc >> mem.PageShift; pn <= (pc+size-1)>>mem.PageShift; pn++ {
		c.ffTouchPage(pn)
	}
}

// ffTouchPage maps demand page pn if it is pending, without fault
// accounting, and disarms the check once no unmapped pages remain.
func (c *CPU) ffTouchPage(pn uint64) {
	if c.img.TouchPage(pn) && !c.img.HasDemandPages() {
		c.demand = false
	}
}

// FastForwardSymbol resolves a function symbol and fast-forwards from
// it.
func (c *CPU) FastForwardSymbol(sym string) error {
	entry, ok := c.img.Symbol(sym)
	if !ok {
		return fmt.Errorf("cpu: unknown entry symbol %q", sym)
	}
	return c.FastForward(entry, 0)
}
