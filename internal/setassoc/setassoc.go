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
// modelled semantics (lookup, hit and eviction counters, which key is
// evicted) are those of the textbook table: a fill takes an invalid
// way if the set has one and otherwise evicts the least-recently-used
// way.  Which invalid way a fill takes is not observable, so each set
// is kept as an LRU stack (Mattson et al., 1970) instead of ways with
// timestamps:
//
//   - recency order: a set's valid ways are packed at its front, most
//     recently used first.  A hit moves its way to the front, a fill
//     shifts the set down one way and writes the front, and a full
//     set's LRU victim is simply its last way.  Probes read keys
//     only, most recent first, and the front way, which sequential
//     code re-probes back to back, is the first compare;
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

	// Way w of set s is element s*ways+w of keys and vals.  Set s's
	// occ[s] valid ways are its first ones, in recency order: way 0 is
	// the most recently used, way occ[s]-1 the least.  sig[s] is a
	// superset signature of the keys resident in set s.
	keys []uint64
	vals []V
	occ  []uint16
	sig  []uint64

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

// set returns key's set and the index of the set's first way.
func (t *Table[V]) set(key uint64) (s, base int) {
	s = int(key & t.mask)
	return s, s * t.ways
}

// find searches set s, whose first way is base, for key and returns
// its way.  The front way is checked first, the signature next.  find
// must stay within the compiler's inlining budget (see -gcflags=-m),
// so that a probe makes no call: as a call it slowed the small
// workloads' kernels by about 10%.
func (t *Table[V]) find(s, base int, key uint64) (int, bool) {
	if t.keys[base] == key && t.occ[s] != 0 {
		return base, true
	}
	if t.sig[s]&sigBit(key) == 0 {
		return 0, false
	}
	for i := base + 1; i < base+int(t.occ[s]); i++ {
		if t.keys[i] == key {
			return i, true
		}
	}
	return 0, false
}

// promote makes way i, valid in the set starting at base, the set's
// most recently used: the ways in front of it shift down one.
func (t *Table[V]) promote(base, i int) {
	if i == base {
		return
	}
	k, v := t.keys[i], t.vals[i]
	copy(t.keys[base+1:i+1], t.keys[base:i])
	copy(t.vals[base+1:i+1], t.vals[base:i])
	t.keys[base], t.vals[base] = k, v
}

// fill places key, absent from set s, at the set's front, evicting its
// LRU way when the set is full.
func (t *Table[V]) fill(s, base int, key uint64, val V) {
	n := int(t.occ[s])
	if n == t.ways {
		n--
		t.evictions++
	} else {
		t.occ[s]++
	}
	copy(t.keys[base+1:base+n+1], t.keys[base:base+n])
	copy(t.vals[base+1:base+n+1], t.vals[base:base+n])
	t.keys[base], t.vals[base] = key, val
	t.sig[s] |= sigBit(key)
}

// Lookup returns the value stored for key and whether it was present,
// updating LRU state and hit/miss counters on the way.
func (t *Table[V]) Lookup(key uint64) (V, bool) {
	t.lookups++
	s, base := t.set(key)
	i, ok := t.find(s, base, key)
	if !ok {
		var zero V
		return zero, false
	}
	t.promote(base, i)
	t.hits++
	return t.vals[base], true
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
	t.hits += uint64(n)
	s, base := t.set(key)
	i, hit := t.find(s, base, key)
	if hit {
		t.promote(base, i)
	} else {
		t.hits-- // the first access missed
		t.fill(s, base, key, val)
	}
	return hit
}

// Peek returns the value for key without updating LRU state or
// counters.  Used by retire-time checks that must not perturb the
// structure.
func (t *Table[V]) Peek(key uint64) (V, bool) {
	s, base := t.set(key)
	if i, ok := t.find(s, base, key); ok {
		return t.vals[i], true
	}
	var zero V
	return zero, false
}

// Insert stores val under key, replacing the LRU way of the set if the
// key is not already present.  It reports whether a valid, different
// entry was evicted.
func (t *Table[V]) Insert(key uint64, val V) (evicted bool) {
	s, base := t.set(key)
	if i, ok := t.find(s, base, key); ok {
		t.vals[i] = val
		t.promote(base, i)
		return false
	}
	evicted = t.occ[s] == uint16(t.ways)
	t.fill(s, base, key, val)
	return evicted
}

// Invalidate removes key if present, reporting whether it was.
func (t *Table[V]) Invalidate(key uint64) bool {
	s, base := t.set(key)
	i, ok := t.find(s, base, key)
	if !ok {
		return false
	}
	// Close the gap, keeping the rest of the set in recency order.
	end := base + int(t.occ[s])
	copy(t.keys[i:end-1], t.keys[i+1:end])
	copy(t.vals[i:end-1], t.vals[i+1:end])
	t.occ[s]--
	// Rebuild the signature exactly from the keys that remain.
	var sig uint64
	for _, k := range t.keys[base : end-1] {
		sig |= sigBit(k)
	}
	t.sig[s] = sig
	return true
}

// Clear invalidates every entry (flush).  Statistics are preserved.
func (t *Table[V]) Clear() {
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
