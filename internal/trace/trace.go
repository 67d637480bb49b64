// Package trace is the simulator's counterpart of the paper's pintool
// (§4.3): it follows the stream of library-function calls (by PLT
// trampoline address) and summarises it as the program runs, keeping
// per-trampoline frequencies and the LRU stack-distance histogram from
// which the skip ratio of an idealised ABTB of any size follows.
//
// Three artefacts come from here: Table 3 (distinct trampolines),
// Figure 4 (trampoline frequency vs. rank), and Figure 5 (fraction of
// trampolines skippable vs. ABTB size, the working-set analysis).
package trace

import (
	"sort"

	"repro/internal/cpu"
)

// Recorder summarises the trampoline call stream of one CPU while it
// runs.  It keeps a move-to-front stack holding each distinct
// trampoline once, most recently called first.  A call's position in
// that stack is its LRU stack distance (Mattson et al.): one plus the
// number of distinct trampolines called since the previous call
// through the same one.  An access hits a fully-associative LRU table
// of N entries exactly when its stack distance is at most N, so the
// histogram of distances built call by call yields the entire Figure 5
// curve, and its knees are the "ABTB working sets" the paper reads out
// of the figure (§5.3).
//
// The recorder's state grows with the number of distinct trampolines,
// never with the number of calls: it keeps no call log, and nothing
// proportional to the call count is left to do when the run ends.
type Recorder struct {
	slots  []uint64 // distinct trampolines, most recently called first
	counts []uint64 // counts[i] is the call count of slots[i]
	dist   []uint64 // dist[d] is the number of calls at stack distance d >= 1
	total  uint64
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Attach hooks the recorder into the CPU's library-call trace point.
func (r *Recorder) Attach(c *cpu.CPU) {
	c.TraceLibCall = r.Record
}

// Record accounts one library call through the trampoline at slot.
func (r *Recorder) Record(slot uint64) {
	r.total++
	for i, s := range r.slots {
		if s == slot {
			n := r.counts[i] + 1
			copy(r.slots[1:i+1], r.slots[:i])
			copy(r.counts[1:i+1], r.counts[:i])
			r.slots[0], r.counts[0] = slot, n
			r.dist[i+1]++
			return
		}
	}
	// First call through this trampoline: infinite stack distance.  The
	// stack deepens by one, and so does the largest possible distance.
	if r.dist == nil {
		r.dist = []uint64{0}
	}
	r.slots = append(r.slots, 0)
	r.counts = append(r.counts, 0)
	copy(r.slots[1:], r.slots)
	copy(r.counts[1:], r.counts)
	r.slots[0], r.counts[0] = slot, 1
	r.dist = append(r.dist, 0)
}

// Total returns the number of library calls recorded.
func (r *Recorder) Total() uint64 { return r.total }

// Distinct returns the number of distinct trampolines seen (Table 3).
func (r *Recorder) Distinct() int { return len(r.slots) }

// TrampCount is one trampoline's call count.
type TrampCount struct {
	Slot  uint64
	Count uint64
}

// Ranked returns per-trampoline counts sorted by descending count, ties
// by ascending slot (Figure 4's x-axis is the rank in this order).
func (r *Recorder) Ranked() []TrampCount {
	out := make([]TrampCount, len(r.slots))
	for i, s := range r.slots {
		out[i] = TrampCount{Slot: s, Count: r.counts[i]}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Slot < out[j].Slot
	})
	return out
}

// Summary copies out what the artefacts read of the stream so far.
func (r *Recorder) Summary() Summary {
	ranked := r.Ranked()
	counts := make([]uint64, len(ranked))
	for i, tc := range ranked {
		counts[i] = tc.Count
	}
	return Summary{Distinct: len(r.slots), Calls: r.total, Counts: counts, Dist: append([]uint64(nil), r.dist...)}
}

// Summary is a trampoline stream reduced to what Table 3 and Figures 4
// and 5 read: a few numbers per distinct trampoline and no call log.
type Summary struct {
	// Distinct is the number of distinct trampolines called (Table 3)
	// and Calls the number of library calls through them.
	Distinct int
	Calls    uint64

	// Counts holds the per-trampoline call counts in descending order
	// (Figure 4: the index is the rank).
	Counts []uint64

	// Dist is the LRU stack-distance histogram (Figure 5): Dist[d]
	// calls were at stack distance d >= 1, and the Distinct first calls
	// are cold.  Its length is Distinct+1, the largest possible
	// distance plus one; nil when no call was recorded.  Counts and
	// Dist are nil on a summary restored from the result store.
	Dist []uint64
}

// SkipCurve returns, for each ABTB size, the fraction of calls that
// would skip their trampoline in an idealised fully-associative,
// LRU-replaced ABTB of that many entries: an access hits an N-entry
// LRU table iff its stack distance is <= N.  The first call to each
// trampoline always misses (nothing is mapped yet), matching the
// hardware's behaviour after the initial resolution settles.
func (s Summary) SkipCurve(sizes []int) []float64 {
	out := make([]float64, len(sizes))
	if len(s.Dist) == 0 {
		return out // no calls, or a summary restored without its histogram
	}
	// Cumulative hits by table size.
	cum := make([]uint64, len(s.Dist))
	var running uint64
	for d := 1; d < len(s.Dist); d++ {
		running += s.Dist[d]
		cum[d] = running
	}
	total := float64(s.Calls)
	for i, n := range sizes {
		if n <= 0 {
			continue
		}
		if n >= len(cum) {
			n = len(cum) - 1
		}
		out[i] = float64(cum[n]) / total
	}
	return out
}

// WorkingSet returns the smallest fully-associative table size whose
// skip ratio reaches frac of the skip ratio of an unbounded table —
// the paper's "ABTB working set" reading of Figure 5's knees.
func (s Summary) WorkingSet(frac float64) int {
	var total uint64
	for d := 1; d < len(s.Dist); d++ {
		total += s.Dist[d]
	}
	if total == 0 {
		return 0
	}
	target := uint64(frac * float64(total))
	var running uint64
	for d := 1; d < len(s.Dist); d++ {
		running += s.Dist[d]
		if running >= target {
			return d
		}
	}
	return len(s.Dist) - 1
}
