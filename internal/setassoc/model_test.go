package setassoc

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// refTable is the reference model: a textbook array-of-structs table.
// Insert prefers the highest invalid way of the set and otherwise
// evicts the least-recently-used one; every probe scans the whole set.
type refTable struct {
	sets, ways int
	e          []refEntry
	tick       uint64

	lookups, hits, evictions uint64
}

type refEntry struct {
	valid bool
	key   uint64
	val   uint64
	lru   uint64
}

func newRef(sets, ways int) *refTable {
	return &refTable{sets: sets, ways: ways, e: make([]refEntry, sets*ways)}
}

func (r *refTable) set(key uint64) []refEntry {
	s := int(key % uint64(r.sets))
	return r.e[s*r.ways : (s+1)*r.ways]
}

func (r *refTable) lookup(key uint64) (uint64, bool) {
	r.lookups++
	set := r.set(key)
	for i := range set {
		if set[i].valid && set[i].key == key {
			r.tick++
			set[i].lru = r.tick
			r.hits++
			return set[i].val, true
		}
	}
	return 0, false
}

func (r *refTable) peek(key uint64) (uint64, bool) {
	for _, e := range r.set(key) {
		if e.valid && e.key == key {
			return e.val, true
		}
	}
	return 0, false
}

func (r *refTable) insert(key, val uint64) bool {
	r.tick++
	set := r.set(key)
	victim := -1
	for i := range set {
		if set[i].valid && set[i].key == key {
			set[i].val, set[i].lru = val, r.tick
			return false
		}
		if !set[i].valid {
			victim = i // the highest invalid way wins
		}
	}
	evicted := victim < 0
	if evicted {
		victim = 0
		for i := range set {
			if set[i].lru < set[victim].lru {
				victim = i
			}
		}
		r.evictions++
	}
	set[victim] = refEntry{valid: true, key: key, val: val, lru: r.tick}
	return evicted
}

// accessRun is n cache-style accesses: a lookup, a fill on a miss.
func (r *refTable) accessRun(key uint64, n int, val uint64) bool {
	hit := false
	for i := 0; i < n; i++ {
		_, ok := r.lookup(key)
		if i == 0 {
			hit = ok
		}
		if !ok {
			r.insert(key, val)
		}
	}
	return hit
}

func (r *refTable) invalidate(key uint64) bool {
	set := r.set(key)
	for i := range set {
		if set[i].valid && set[i].key == key {
			set[i] = refEntry{}
			return true
		}
	}
	return false
}

func (r *refTable) clear() {
	for i := range r.e {
		r.e[i] = refEntry{}
	}
}

func (r *refTable) len() int {
	n := 0
	for _, e := range r.e {
		if e.valid {
			n++
		}
	}
	return n
}

// resident is one valid way.  Sets are compared as lists of valid
// ways in recency order, most recently used first: the reference's
// LRU stamps are unique, so that order is canonical, and it fixes
// every future victim just as the stamps do.
type resident struct{ key, val uint64 }

func (r *refTable) resident(s int) []resident {
	set := slices.Clone(r.e[s*r.ways : (s+1)*r.ways])
	set = slices.DeleteFunc(set, func(e refEntry) bool { return !e.valid })
	slices.SortFunc(set, func(a, b refEntry) int { return cmp.Compare(b.lru, a.lru) })
	var out []resident
	for _, e := range set {
		out = append(out, resident{e.key, e.val})
	}
	return out
}

// tableResident lists set s's valid ways, its first occ[s], in the
// table's recency order.
func tableResident(t *Table[uint64], s int) []resident {
	var out []resident
	base := s * t.ways
	for i := base; i < base+int(t.occ[s]); i++ {
		out = append(out, resident{t.keys[i], t.vals[i]})
	}
	return out
}

// TestTableMatchesReference drives the table and the reference model
// with the same seeded random stream of Lookup, AccessRun, Insert,
// Peek, Invalidate and Clear.  After every operation it compares the
// results, the counters and Len, and the resident keys and values,
// in recency order, of the set the operation addressed (the only set
// it may change); after a Clear, and every 256 operations, it compares
// every set.
func TestTableMatchesReference(t *testing.T) {
	geometries := []struct{ sets, ways int }{
		{1, 1},
		{512, 4},
		{64, 8},
		{16, 24}, // the L2's 24-way sets, scaled down
		{1, 256}, // the ABTB's fully associative CAM
	}
	for _, g := range geometries {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%dx%d/seed%d", g.sets, g.ways, seed), func(t *testing.T) {
				checkAgainstReference(t, g.sets, g.ways, seed)
			})
		}
	}
}

func checkAgainstReference(t *testing.T, sets, ways int, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, uint64(sets*ways)))
	tb, ref := New[uint64](sets, ways), newRef(sets, ways)
	// One and a half times the capacity's worth of keys, so that sets
	// fill, overflow and evict, and keys recur; every key's high bits
	// are random, so signatures see realistic spread.
	universe := make([]uint64, sets*ways*3/2+1)
	for i := range universe {
		universe[i] = rng.Uint64()
	}
	var recent [4]uint64
	pick := func() uint64 {
		if rng.IntN(2) == 0 {
			return recent[rng.IntN(len(recent))]
		}
		k := universe[rng.IntN(len(universe))]
		recent[rng.IntN(len(recent))] = k
		return k
	}
	compareSet := func(op int, desc string, s int) {
		if g, w := tableResident(tb, s), ref.resident(s); !slices.Equal(g, w) {
			t.Fatalf("after op %d %s: set %d holds %x; reference %x", op, desc, s, g, w)
		}
	}
	ops := max(4000, 16*sets*ways)
	for op := 0; op < ops; op++ {
		key, val := pick(), rng.Uint64()
		var desc string
		switch r := rng.IntN(1000); {
		case op%(ops/3) == ops/3-1:
			// Flush twice per stream, late enough for every set to
			// have filled and evicted in between.
			desc = "Clear()"
			tb.Clear()
			ref.clear()
		case r < 300:
			desc = fmt.Sprintf("Lookup(%#x)", key)
			gv, gok := tb.Lookup(key)
			wv, wok := ref.lookup(key)
			if gv != wv || gok != wok {
				t.Fatalf("op %d %s = %#x, %v; reference %#x, %v", op, desc, gv, gok, wv, wok)
			}
		case r < 600:
			n := 1 + rng.IntN(5)
			desc = fmt.Sprintf("AccessRun(%#x, %d)", key, n)
			if g, w := tb.AccessRun(key, n, val), ref.accessRun(key, n, val); g != w {
				t.Fatalf("op %d %s = %v; reference %v", op, desc, g, w)
			}
		case r < 850:
			desc = fmt.Sprintf("Insert(%#x)", key)
			if g, w := tb.Insert(key, val), ref.insert(key, val); g != w {
				t.Fatalf("op %d %s evicted %v; reference %v", op, desc, g, w)
			}
		case r < 950:
			desc = fmt.Sprintf("Peek(%#x)", key)
			gv, gok := tb.Peek(key)
			wv, wok := ref.peek(key)
			if gv != wv || gok != wok {
				t.Fatalf("op %d %s = %#x, %v; reference %#x, %v", op, desc, gv, gok, wv, wok)
			}
		default:
			desc = fmt.Sprintf("Invalidate(%#x)", key)
			if g, w := tb.Invalidate(key), ref.invalidate(key); g != w {
				t.Fatalf("op %d %s = %v; reference %v", op, desc, g, w)
			}
		}
		if tb.Lookups() != ref.lookups || tb.Hits() != ref.hits || tb.Misses() != ref.lookups-ref.hits ||
			tb.Evictions() != ref.evictions || tb.Len() != ref.len() {
			t.Fatalf("after op %d %s: lookups/hits/misses/evictions/len %d/%d/%d/%d/%d; reference %d/%d/%d/%d/%d",
				op, desc, tb.Lookups(), tb.Hits(), tb.Misses(), tb.Evictions(), tb.Len(),
				ref.lookups, ref.hits, ref.lookups-ref.hits, ref.evictions, ref.len())
		}
		if desc == "Clear()" || op%256 == 255 {
			for s := 0; s < sets; s++ {
				compareSet(op, desc, s)
			}
		} else {
			compareSet(op, desc, int(key%uint64(sets)))
		}
	}
	if ref.evictions == 0 {
		t.Fatal("the stream never evicted: it does not exercise replacement")
	}
}
