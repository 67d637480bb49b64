package trace

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/cpu"
	"repro/internal/linker"
	"repro/internal/objfile"
)

// stream feeds calls to a Recorder and keeps them for the reference
// replay below.
type stream struct {
	rec *Recorder
	seq []uint64
}

func newStream() *stream { return &stream{rec: NewRecorder()} }

func (s *stream) call(slot uint64) {
	s.rec.Record(slot)
	s.seq = append(s.seq, slot)
}

// skipRatio is the reference implementation of Figure 5: it replays
// the call stream through an idealised fully-associative,
// LRU-replaced ABTB with the given entry count and returns the
// fraction of calls that hit the table.  The first call to each
// trampoline always misses.
func skipRatio(seq []uint64, entries int) float64 {
	if entries <= 0 || len(seq) == 0 {
		return 0
	}
	l := newLRU(entries)
	hits := 0
	for _, s := range seq {
		if l.touch(s) {
			hits++
		}
	}
	return float64(hits) / float64(len(seq))
}

// skipCurve evaluates skipRatio at each size.
func skipCurve(seq []uint64, sizes []int) []float64 {
	out := make([]float64, len(sizes))
	for i, n := range sizes {
		out[i] = skipRatio(seq, n)
	}
	return out
}

// lru is a fixed-capacity LRU set over uint64 keys with O(1) touch.
type lru struct {
	cap  int
	m    map[uint64]*node
	head *node // most recent
	tail *node // least recent
}

type node struct {
	key        uint64
	prev, next *node
}

func newLRU(capacity int) *lru {
	return &lru{cap: capacity, m: make(map[uint64]*node, capacity)}
}

// touch inserts or refreshes key, returning whether it was present.
func (l *lru) touch(key uint64) bool {
	if n, ok := l.m[key]; ok {
		l.moveToFront(n)
		return true
	}
	n := &node{key: key}
	l.m[key] = n
	l.pushFront(n)
	if len(l.m) > l.cap {
		evict := l.tail
		l.unlink(evict)
		delete(l.m, evict.key)
	}
	return false
}

func (l *lru) pushFront(n *node) {
	n.next = l.head
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
}

func (l *lru) unlink(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (l *lru) moveToFront(n *node) {
	if l.head == n {
		return
	}
	l.unlink(n)
	l.pushFront(n)
}

func TestRecorderCounts(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < 5; i++ {
		r.Record(100)
	}
	r.Record(200)
	if r.Total() != 6 {
		t.Errorf("Total = %d, want 6", r.Total())
	}
	if r.Distinct() != 2 {
		t.Errorf("Distinct = %d, want 2", r.Distinct())
	}
	ranked := r.Ranked()
	if len(ranked) != 2 || ranked[0].Slot != 100 || ranked[0].Count != 5 {
		t.Errorf("Ranked = %v", ranked)
	}
	if ranked[1].Count != 1 {
		t.Errorf("Ranked[1] = %v", ranked[1])
	}
	s := r.Summary()
	if s.Distinct != 2 || s.Calls != 6 || len(s.Counts) != 2 || s.Counts[0] != 5 || s.Counts[1] != 1 {
		t.Errorf("Summary = %+v", s)
	}
}

func TestRankedDescending(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0))
		r := NewRecorder()
		for i := 0; i < 500; i++ {
			r.Record(rng.Uint64() % 20)
		}
		ranked := r.Ranked()
		for i := 1; i < len(ranked); i++ {
			if ranked[i].Count > ranked[i-1].Count ||
				ranked[i].Count == ranked[i-1].Count && ranked[i].Slot < ranked[i-1].Slot {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestRecorderExactPast4MCalls feeds a stream longer than the 4M-call
// log an offline analysis would keep, whose working set grows after
// the first 4M calls.  The online summary must match the reference
// replay of the whole stream, not of its first 4M calls.
func TestRecorderExactPast4MCalls(t *testing.T) {
	const prefix, tail = 1 << 22, 600_000
	sizes := []int{4, 16, 40}
	calls := func(yield func(uint64)) {
		rng := rand.New(rand.NewPCG(4, 4))
		for i := 0; i < prefix; i++ {
			yield(rng.Uint64() % 8)
		}
		for i := 0; i < tail; i++ {
			yield(rng.Uint64() % 48)
		}
	}
	r := NewRecorder()
	calls(r.Record)

	lrus := make([]*lru, len(sizes))
	hits := make([]int, len(sizes))
	for i, n := range sizes {
		lrus[i] = newLRU(n)
	}
	calls(func(slot uint64) {
		for i, l := range lrus {
			if l.touch(slot) {
				hits[i]++
			}
		}
	})

	s := r.Summary()
	if s.Calls != prefix+tail || s.Distinct != 48 {
		t.Fatalf("Calls = %d, Distinct = %d, want %d and 48", s.Calls, s.Distinct, prefix+tail)
	}
	curve := s.SkipCurve(sizes)
	for i, n := range sizes {
		want := float64(hits[i]) / float64(prefix+tail)
		if math.Abs(curve[i]-want) > 1e-12 {
			t.Errorf("size %d: summary skips %.6f, replay %.6f", n, curve[i], want)
		}
	}
	// The 8-key prefix alone would put the 16-entry table near 100%.
	if curve[1] > 0.99 {
		t.Errorf("16-entry skip ratio %.4f ignores the calls past 4M", curve[1])
	}
}

func TestSkipRatioSmallWorkingSet(t *testing.T) {
	s := newStream()
	// 4 trampolines round-robin, 100 rounds.
	for round := 0; round < 100; round++ {
		for k := uint64(0); k < 4; k++ {
			s.call(k)
		}
	}
	// Size >= 4: everything but the 4 cold misses hits.  Size 3 with a
	// cyclic pattern of 4: LRU always evicts the next needed entry —
	// zero hits.
	want := float64(400-4) / 400
	sizes := []int{4, 1000, 3, 0}
	wants := []float64{want, want, 0, 0}
	ref := skipCurve(s.seq, sizes)
	got := s.rec.Summary().SkipCurve(sizes)
	for i, n := range sizes {
		if ref[i] != wants[i] {
			t.Errorf("replay at %d = %v, want %v", n, ref[i], wants[i])
		}
		if got[i] != wants[i] {
			t.Errorf("SkipCurve at %d = %v, want %v", n, got[i], wants[i])
		}
	}
}

func TestSkipCurveMonotone(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	r := NewRecorder()
	for i := 0; i < 20000; i++ {
		// Zipf-ish: favour low slots.
		r.Record(uint64(rng.ExpFloat64() * 30))
	}
	sizes := []int{1, 2, 4, 8, 16, 32, 64, 128}
	curve := r.Summary().SkipCurve(sizes)
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1] {
			t.Errorf("skip curve not monotone at %d: %v < %v", sizes[i], curve[i], curve[i-1])
		}
	}
	if curve[len(curve)-1] <= 0.9 {
		t.Errorf("large-table skip ratio = %v, want > 0.9", curve[len(curve)-1])
	}
}

func TestLRUBasics(t *testing.T) {
	l := newLRU(2)
	if l.touch(1) {
		t.Error("cold touch hit")
	}
	if !l.touch(1) {
		t.Error("warm touch missed")
	}
	l.touch(2)
	l.touch(3) // evicts 1 (LRU after the refresh order 1,2)
	if l.touch(1) {
		t.Error("evicted key hit")
	}
	// Now cache = {3, 1} (2 was LRU and evicted by reinserting 1).
	if !l.touch(3) {
		t.Error("key 3 lost")
	}
}

func TestAttachEndToEnd(t *testing.T) {
	app := objfile.New("app")
	m := app.NewFunc("main")
	lib := objfile.New("lib")
	for i := 0; i < 3; i++ {
		name := "f" + string(rune('0'+i))
		lib.NewFunc(name).ALU(1).Ret()
		m.Call(name)
	}
	m.Halt()
	im, err := linker.Link(app, []*objfile.Object{lib}, linker.Options{Mode: linker.BindLazy})
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.New(im, cpu.DefaultConfig())
	r := NewRecorder()
	r.Attach(c)
	for i := 0; i < 5; i++ {
		if _, err := c.RunSymbol("main", 0); err != nil {
			t.Fatal(err)
		}
	}
	if r.Total() != 15 {
		t.Errorf("Total = %d, want 15", r.Total())
	}
	if r.Distinct() != 3 {
		t.Errorf("Distinct = %d, want 3", r.Distinct())
	}
	// Steady state: each trampoline hits after its first call.
	if got := r.Summary().SkipCurve([]int{16}); got[0] != float64(15-3)/15 {
		t.Errorf("SkipCurve(16) = %v", got)
	}
}
