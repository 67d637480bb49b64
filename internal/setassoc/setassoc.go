// Package setassoc implements a generic set-associative, LRU-replaced
// lookup table — the storage organisation shared by every hardware
// structure in the simulator: caches, TLBs, the BTB and the ABTB.
//
// Keys are 64-bit values (addresses or page numbers).  The set index
// is taken from the low bits of the key and the full key is stored as
// the tag, so aliasing between distinct keys never produces a false
// hit; conflict behaviour (the paper's concern for BTB pressure) comes
// from set overflow, exactly as in hardware.
//
// Lookup is the hottest function in the simulator — every I-cache,
// D-cache, TLB, BTB and ABTB access lands here, and the ABTB is a
// 256-way fully-associative CAM probed once per retired call.  The
// ways are stored as parallel arrays (structure of arrays), so a probe
// reads only contiguous keys: a 24-way set's tags span three host
// cache lines instead of nine.  The modelled semantics (lookup, hit
// and eviction counters, LRU order, which key is evicted) are those of
// the textbook table: a fill takes an invalid way if the set has one
// and otherwise evicts the least-recently-used way.  Which invalid way
// a fill takes is not observable, and three accelerations exploit
// that or otherwise avoid the naive O(ways) scan:
//
//   - packed sets: a set's valid ways are always its first occ[s]
//     ways (Invalidate moves the set's last valid way into the hole),
//     so a probe scans exactly the resident keys and never reads the
//     LRU stamps;
//   - a last-hit memo: sequential code re-probes the same line/page/
//     target back to back, so the way of the previous hit or fill is
//     checked first (revalidated against its key and a non-zero LRU
//     stamp, which marks a valid way, so staleness is harmless);
//   - a per-set 64-bit key signature (a superset of the resident keys'
//     hash bits), so most misses are rejected without scanning at all.
//     Replacement leaves stale bits behind — the signature is only
//     ever a superset, which costs a wasted scan, never a wrong
//     result — and Invalidate/Clear rebuild or reset it exactly.
//
// AccessRun is the cache-style access: one probe applies a run of n
// accesses to one key, filling it on a miss.
package setassoc

import "fmt"

// Table is a set-associative table mapping uint64 keys to values of
// type V.  Construct with New.
type Table[V any] struct {
	sets int
	ways int
	mask uint64

	// Way w of set s is element s*ways+w of keys, lru and vals.  An
	// LRU stamp of zero marks an invalid way; valid stamps are unique
	// ticks, so the LRU way of a full set is its minimum stamp.
	keys []uint64
	lru  []uint64
	vals []V
	tick uint64

	// occ[s] counts the valid ways of set s, which are packed at the
	// set's start; sig[s] is a superset signature of the keys resident
	// in set s.  last is the way of the most recent hit or fill.
	occ  []uint16
	sig  []uint64
	last int

	lookups   uint64
	hits      uint64
	evictions uint64
}

// sigBit maps a key to its signature bit.  The multiplier is the
// 64-bit golden ratio; the top six product bits select the bit so that
// keys differing only in low bits (adjacent lines, pages, slots) still
// spread across the signature.
func sigBit(key uint64) uint64 {
	return 1 << ((key * 0x9e3779b97f4a7c15) >> 58)
}

// New returns a table with the given geometry.  sets must be a power
// of two; both arguments must be positive.  It panics otherwise, since
// geometry is fixed hardware configuration.
func New[V any](sets, ways int) *Table[V] {
	if sets <= 0 || ways <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("setassoc: invalid geometry sets=%d ways=%d", sets, ways))
	}
	if ways > 1<<16-1 {
		panic(fmt.Sprintf("setassoc: associativity %d exceeds occupancy counter range", ways))
	}
	return &Table[V]{
		sets: sets,
		ways: ways,
		mask: uint64(sets - 1),
		keys: make([]uint64, sets*ways),
		lru:  make([]uint64, sets*ways),
		vals: make([]V, sets*ways),
		occ:  make([]uint16, sets),
		sig:  make([]uint64, sets),
	}
}

// Sets returns the number of sets.
func (t *Table[V]) Sets() int { return t.sets }

// Ways returns the associativity.
func (t *Table[V]) Ways() int { return t.ways }

// Entries returns the total capacity in entries.
func (t *Table[V]) Entries() int { return t.sets * t.ways }

// hitLast reports whether way last, the previous hit or fill, holds
// key.
func (t *Table[V]) hitLast(key uint64) bool {
	return t.keys[t.last] == key && t.lru[t.last] != 0
}

// scan searches key's set for it.
func (t *Table[V]) scan(key uint64) (int, bool) {
	s := int(key & t.mask)
	if t.sig[s]&sigBit(key) == 0 {
		return 0, false
	}
	base := s * t.ways
	// Fills append at the end of the packed ways, so scan downward:
	// the most recently filled keys come first.
	for i := base + int(t.occ[s]) - 1; i >= base; i-- {
		if t.keys[i] == key {
			return i, true
		}
	}
	return 0, false
}

// Lookup returns the value stored for key and whether it was present,
// updating LRU state and hit/miss counters on the way.
func (t *Table[V]) Lookup(key uint64) (V, bool) {
	t.lookups++
	if !t.hitLast(key) {
		i, ok := t.scan(key)
		if !ok {
			var zero V
			return zero, false
		}
		t.last = i
	}
	t.tick++
	t.lru[t.last] = t.tick
	t.hits++
	return t.vals[t.last], true
}

// AccessRun performs n consecutive cache-style accesses to key (n >= 1)
// with one probe and reports whether the first one hit.  Its counter,
// LRU and eviction effects are exactly those of n iterations of
// "Lookup(key); on a miss, Insert(key, val)": only the first access can
// miss, and once it has filled the key the remaining n-1 hit it.
// Caches and TLBs use it for single accesses and for the compiled
// kernel's runs of same-line and same-page fetches.
func (t *Table[V]) AccessRun(key uint64, n int, val V) (hit bool) {
	t.lookups += uint64(n)
	t.tick += uint64(n)
	t.hits += uint64(n)
	hit = t.hitLast(key)
	if !hit {
		var i int
		if i, hit = t.scan(key); !hit {
			t.hits-- // the first access missed
			i = t.fill(int(key&t.mask), key, val)
		}
		t.last = i
	}
	t.lru[t.last] = t.tick
	return hit
}

// Peek returns the value for key without updating LRU state or
// counters.  Used by retire-time checks that must not perturb the
// structure.
func (t *Table[V]) Peek(key uint64) (V, bool) {
	if t.hitLast(key) {
		return t.vals[t.last], true
	}
	if i, ok := t.scan(key); ok {
		return t.vals[i], true
	}
	var zero V
	return zero, false
}

// Insert stores val under key, replacing the LRU way of the set if the
// key is not already present.  It reports whether a valid, different
// entry was evicted.
func (t *Table[V]) Insert(key uint64, val V) (evicted bool) {
	t.tick++
	if i, ok := t.scan(key); ok {
		t.vals[i] = val
		t.lru[i] = t.tick
		return false
	}
	s := int(key & t.mask)
	evicted = t.occ[s] == uint16(t.ways)
	t.lru[t.fill(s, key, val)] = t.tick
	return evicted
}

// fill places key, absent from set s, in the set's first invalid way,
// or over its LRU way when the set is full, and returns the way.  The
// caller stamps the way's LRU tick.
func (t *Table[V]) fill(s int, key uint64, val V) int {
	base := s * t.ways
	i := base + int(t.occ[s])
	if i == base+t.ways {
		i = base
		for j := base + 1; j < base+t.ways; j++ {
			if t.lru[j] < t.lru[i] {
				i = j
			}
		}
		t.evictions++
	} else {
		t.occ[s]++
	}
	t.keys[i], t.vals[i] = key, val
	t.sig[s] |= sigBit(key)
	return i
}

// Invalidate removes key if present, reporting whether it was.
func (t *Table[V]) Invalidate(key uint64) bool {
	i, ok := t.scan(key)
	if !ok {
		return false
	}
	// Keep the set packed: its last valid way moves into the hole.
	s := int(key & t.mask)
	j := s*t.ways + int(t.occ[s]) - 1
	t.keys[i], t.lru[i], t.vals[i] = t.keys[j], t.lru[j], t.vals[j]
	var zero V
	t.lru[j], t.vals[j] = 0, zero
	t.occ[s]--
	t.rebuildSig(s)
	return true
}

// rebuildSig recomputes set s's signature exactly from its resident
// keys.  Only Invalidate needs it; replacement tolerates stale bits.
func (t *Table[V]) rebuildSig(s int) {
	var sig uint64
	base := s * t.ways
	for _, k := range t.keys[base : base+int(t.occ[s])] {
		sig |= sigBit(k)
	}
	t.sig[s] = sig
}

// Clear invalidates every entry (flush).  Statistics are preserved.
func (t *Table[V]) Clear() {
	clear(t.lru)
	clear(t.vals)
	clear(t.occ)
	clear(t.sig)
}

// Len returns the number of valid entries.
func (t *Table[V]) Len() int {
	n := 0
	for _, o := range t.occ {
		n += int(o)
	}
	return n
}

// Lookups returns the number of lookups (Lookup calls plus the
// accesses of every AccessRun).
func (t *Table[V]) Lookups() uint64 { return t.lookups }

// Hits returns the number of lookups that hit.
func (t *Table[V]) Hits() uint64 { return t.hits }

// Misses returns the number of lookups that missed.
func (t *Table[V]) Misses() uint64 { return t.lookups - t.hits }

// Evictions returns the number of valid entries replaced by a fill.
func (t *Table[V]) Evictions() uint64 { return t.evictions }

// ResetStats zeroes the hit/miss/eviction counters, keeping contents.
// Used to exclude warmup from measurement windows.
func (t *Table[V]) ResetStats() {
	t.lookups, t.hits, t.evictions = 0, 0, 0
}
