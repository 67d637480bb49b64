package cache

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func smallCache(next *Cache) *Cache {
	// 4 sets x 2 ways x 64B lines = 512B
	return New(Config{Name: "t", SizeBytes: 512, LineBytes: 64, Ways: 2,
		HitLatency: 1, MissPenalty: 10}, next)
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"ok", Config{Name: "c", SizeBytes: 512, LineBytes: 64, Ways: 2}, false},
		{"zero size", Config{LineBytes: 64, Ways: 1}, true},
		{"npot line", Config{SizeBytes: 512, LineBytes: 48, Ways: 2}, true},
		{"size not multiple", Config{SizeBytes: 100, LineBytes: 64, Ways: 1}, true},
		{"npot sets", Config{SizeBytes: 64 * 6, LineBytes: 64, Ways: 2}, true},
		{"fully assoc ok", Config{SizeBytes: 512, LineBytes: 64, Ways: 8}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.cfg.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestMissThenHit(t *testing.T) {
	c := smallCache(nil)
	if lat := c.Access(0x1000); lat != 11 {
		t.Errorf("cold access latency = %d, want 11", lat)
	}
	if lat := c.Access(0x1000); lat != 1 {
		t.Errorf("warm access latency = %d, want 1", lat)
	}
	// Same line, different byte: still a hit.
	if lat := c.Access(0x103f); lat != 1 {
		t.Errorf("same-line access latency = %d, want 1", lat)
	}
	// Next line: miss.
	if lat := c.Access(0x1040); lat != 11 {
		t.Errorf("next-line access latency = %d, want 11", lat)
	}
	if c.Misses() != 2 || c.Accesses() != 4 {
		t.Errorf("misses/accesses = %d/%d, want 2/4", c.Misses(), c.Accesses())
	}
	if got := c.MissRate(); got != 0.5 {
		t.Errorf("MissRate = %v, want 0.5", got)
	}
}

func TestHierarchy(t *testing.T) {
	l2 := New(Config{Name: "L2", SizeBytes: 4096, LineBytes: 64, Ways: 4,
		HitLatency: 5, MissPenalty: 100}, nil)
	l1 := smallCache(l2)
	// Cold: L1 miss (1+10) + L2 miss (5+100) = 116.
	if lat := l1.Access(0); lat != 116 {
		t.Errorf("cold = %d, want 116", lat)
	}
	// L1 hit: 1.
	if lat := l1.Access(0); lat != 1 {
		t.Errorf("L1 hit = %d, want 1", lat)
	}
	// Evict line 0 from L1 by filling its set (set = line % 4; lines
	// 4 and 8 map to set 0 of the 4-set L1).
	l1.Access(4 << 6)
	l1.Access(8 << 6)
	// Line 0 now misses in L1 but hits in L2: 1+10+5 = 16.
	if lat := l1.Access(0); lat != 16 {
		t.Errorf("L1 miss, L2 hit = %d, want 16", lat)
	}
}

func TestAccessRangeStraddle(t *testing.T) {
	c := smallCache(nil)
	// A 6-byte instruction at 0x3e straddles lines 0 and 1.
	lat := c.AccessRange(0x3e, 6)
	if lat != 22 {
		t.Errorf("straddling cold fetch = %d, want 22 (two misses)", lat)
	}
	if !c.Contains(0x00) || !c.Contains(0x40) {
		t.Error("both straddled lines should be resident")
	}
	// Zero size counts as one byte.
	if lat := c.AccessRange(0x80, 0); lat != 11 {
		t.Errorf("zero-size access = %d, want 11", lat)
	}
}

func TestContainsDoesNotFill(t *testing.T) {
	c := smallCache(nil)
	if c.Contains(0x1000) {
		t.Error("empty cache contains line")
	}
	if c.Accesses() != 0 {
		t.Error("Contains bumped access counter")
	}
}

func TestFlushAndResetStats(t *testing.T) {
	l2 := New(Config{Name: "L2", SizeBytes: 4096, LineBytes: 64, Ways: 4,
		HitLatency: 5, MissPenalty: 100}, nil)
	l1 := smallCache(l2)
	l1.Access(0)
	l1.Flush()
	if l1.Contains(0) {
		t.Error("line survived Flush")
	}
	if !l2.Contains(0) {
		t.Error("L1 flush should not clear L2")
	}
	l1.ResetStats()
	if l1.Accesses() != 0 || l2.Accesses() != 0 {
		t.Error("ResetStats did not propagate")
	}
	if !l2.Contains(0) {
		t.Error("ResetStats dropped contents")
	}
}

func TestLRUWithinSet(t *testing.T) {
	c := smallCache(nil) // 4 sets, 2 ways
	// Three lines in set 0: 0, 4, 8 (line numbers).
	c.Access(0 << 6)
	c.Access(4 << 6)
	c.Access(0 << 6) // refresh 0; LRU is now 4
	c.Access(8 << 6) // evicts 4
	if !c.Contains(0 << 6) {
		t.Error("MRU line evicted")
	}
	if c.Contains(4 << 6) {
		t.Error("LRU line survived")
	}
}

func TestWorkingSetFitsNoMisses(t *testing.T) {
	// Property: a working set that fits entirely in the cache has no
	// misses after the first pass.
	f := func(seed uint64) bool {
		c := New(Config{Name: "c", SizeBytes: 8192, LineBytes: 64, Ways: 8,
			HitLatency: 1, MissPenalty: 10}, nil)
		lines := c.Config().SizeBytes / c.Config().LineBytes
		for i := 0; i < lines; i++ {
			c.Access(uint64(i) << 6)
		}
		c.ResetStats()
		for pass := 0; pass < 3; pass++ {
			for i := 0; i < lines; i++ {
				c.Access(uint64(i) << 6)
			}
		}
		return c.Misses() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}

func TestDefaultHierarchyGeometry(t *testing.T) {
	l2 := DefaultL2()
	l1i := DefaultL1I(l2)
	l1d := DefaultL1D(l2)
	for _, c := range []*Cache{l2, l1i, l1d} {
		if err := c.Config().Validate(); err != nil {
			t.Errorf("%s: %v", c.Config().Name, err)
		}
	}
	if l1i.Next() != l2 || l1d.Next() != l2 {
		t.Error("L1s not backed by L2")
	}
	if l2.Config().SizeBytes != 12<<20 {
		t.Errorf("L2 size = %d, want 12MiB (Xeon E5450)", l2.Config().SizeBytes)
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{Name: "bad", SizeBytes: 100, LineBytes: 64, Ways: 1}, nil)
}

// TestAccessRepeatMatchesSingleAccesses drives two identical
// two-level hierarchies with one seeded stream: one applies each run
// with AccessRepeat(addr, n), the other with n single Accesses to
// bytes of addr's line (the first at addr).  Latencies, both levels'
// counters and every line's residency must agree after every run.
func TestAccessRepeatMatchesSingleAccesses(t *testing.T) {
	build := func() (*Cache, *Cache) {
		l2 := New(Config{Name: "l2", SizeBytes: 2048, LineBytes: 128, Ways: 4, HitLatency: 4, MissPenalty: 50}, nil)
		return smallCache(l2), l2
	}
	runL1, runL2 := build()
	oneL1, oneL2 := build()
	rng := rand.New(rand.NewPCG(7, 11))
	const region = 8 << 10
	for op := 0; op < 20000; op++ {
		addr := rng.Uint64N(region)
		if op%997 == 996 {
			runL1.Flush()
			oneL1.Flush()
		}
		n := 1 + rng.IntN(6)
		got := runL1.AccessRepeat(addr, n)
		want := oneL1.Access(addr)
		for i := 1; i < n; i++ {
			want += oneL1.Access(addr&^63 | rng.Uint64N(64))
		}
		if got != want {
			t.Fatalf("op %d: AccessRepeat(%#x, %d) = %d cycles, single accesses %d", op, addr, n, got, want)
		}
		for _, lv := range [][2]*Cache{{runL1, oneL1}, {runL2, oneL2}} {
			if lv[0].Accesses() != lv[1].Accesses() || lv[0].Misses() != lv[1].Misses() {
				t.Fatalf("op %d: %s accesses/misses %d/%d, single accesses %d/%d", op, lv[0].Config().Name,
					lv[0].Accesses(), lv[0].Misses(), lv[1].Accesses(), lv[1].Misses())
			}
		}
		for a := uint64(0); a < region; a += 64 {
			if runL1.Contains(a) != oneL1.Contains(a) || runL2.Contains(a) != oneL2.Contains(a) {
				t.Fatalf("op %d: residency of %#x differs", op, a)
			}
		}
	}
}
