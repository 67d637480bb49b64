package abtb

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func small() *ABTB {
	return New(Config{Entries: 16, Ways: 4, BloomBits: 256, BloomK: 3})
}

// populate runs the retire-time pattern for one trampoline: a call to
// tramp retires, then the trampoline's indirect branch (at tramp,
// loading from got) retires with target fn.
func populate(a *ABTB, tramp, fn, got uint64) {
	a.OnRetireCall(tramp)
	a.OnRetireIndirectBranch(tramp, fn, got)
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config: %v", err)
	}
	bad := []Config{
		{Entries: 0, Ways: 1, BloomBits: 8, BloomK: 1},
		{Entries: 16, Ways: 3, BloomBits: 8, BloomK: 1},
		{Entries: 24, Ways: 2, BloomBits: 8, BloomK: 1},
		{Entries: 16, Ways: 4}, // bloom required unless explicit-invalidate
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
	ok := Config{Entries: 16, Ways: 4, ExplicitInvalidate: true}
	if err := ok.Validate(); err != nil {
		t.Errorf("explicit-invalidate config rejected: %v", err)
	}
}

func TestSizeBytes(t *testing.T) {
	// The paper's headline claim: 256 entries is under 1.5KB (§5.3),
	// 16 entries is 192 bytes.
	if got := (Config{Entries: 256, Ways: 4, ExplicitInvalidate: true}).SizeBytes(); got != 3072-0 && got != 256*EntryBytes {
		t.Errorf("256-entry table = %d bytes", got)
	}
	if got := 256 * EntryBytes; got != 3072 {
		// 12 bytes * 256 = 3072; the paper says "totaling less than
		// 1.5KB" counting 6-byte fields packed as 48-bit pairs; our
		// EntryBytes matches their 12-byte arithmetic.
		t.Errorf("entry arithmetic drifted: %d", got)
	}
	if got := (Config{Entries: 16, Ways: 4, ExplicitInvalidate: true}).SizeBytes(); got != 192 {
		t.Errorf("16-entry table = %d bytes, want 192 (paper §5.3)", got)
	}
	with := Config{Entries: 16, Ways: 4, BloomBits: 1024, BloomK: 4}
	if got := with.SizeBytes(); got != 192+128 {
		t.Errorf("with bloom = %d bytes, want 320", got)
	}
}

func TestPopulateAndRedirect(t *testing.T) {
	a := small()
	const tramp, fn, got = 0x401020, 0x7f0000001000, 0x601018
	if _, ok := a.Lookup(tramp); ok {
		t.Fatal("empty ABTB redirected")
	}
	populate(a, tramp, fn, got)
	target, ok := a.Lookup(tramp)
	if !ok || target != fn {
		t.Fatalf("Lookup = %#x, %v; want %#x", target, ok, fn)
	}
	if a.Inserts() != 1 || a.Redirects() != 1 {
		t.Errorf("inserts/redirects = %d/%d", a.Inserts(), a.Redirects())
	}
}

func TestPatternRequiresAdjacency(t *testing.T) {
	a := small()
	// call retires, then an unrelated instruction, then the branch:
	// no insertion.
	a.OnRetireCall(0x401020)
	a.BreakPattern()
	a.OnRetireIndirectBranch(0x401020, 0x7f0000001000, 0x601018)
	if a.Len() != 0 {
		t.Error("broken pattern inserted")
	}
	// A non-sequential simple instruction also breaks it.
	a.OnRetireCall(0x401020)
	a.OnRetireOther(0x999999, 4)
	a.OnRetireIndirectBranch(0x401020, 0x7f0000001000, 0x601018)
	if a.Len() != 0 {
		t.Error("non-adjacent pattern inserted")
	}
	// Two calls in a row: only the second one's target is pending.
	a.OnRetireCall(0x300000)
	a.OnRetireCall(0x401020)
	a.OnRetireIndirectBranch(0x401020, 0x7f0000001000, 0x601018)
	if a.Len() != 1 {
		t.Error("adjacent pattern after double call not inserted")
	}
}

func TestPatternRequiresCallTargetMatch(t *testing.T) {
	a := small()
	// The indirect branch retires at a PC different from the call's
	// resolved target (e.g. a jump into the middle of a function):
	// not a trampoline pattern.
	a.OnRetireCall(0x401020)
	a.OnRetireIndirectBranch(0x999999, 0x7f0000001000, 0x601018)
	if a.Len() != 0 {
		t.Error("mismatched call-target pattern inserted")
	}
}

func TestPatternRequiresMemOperand(t *testing.T) {
	a := small()
	// A call followed by a return (indirect branch with no memory
	// operand in the GOT sense) must not populate.
	a.OnRetireCall(0x401020)
	a.OnRetireIndirectBranch(0x401020, 0x7f0000001000, 0)
	if a.Len() != 0 {
		t.Error("pattern without GOT operand inserted")
	}
}

func TestConsecutivePatterns(t *testing.T) {
	a := small()
	// A second call→branch pair right after the first.
	populate(a, 0x401020, 0x7f0000001000, 0x601018)
	populate(a, 0x401030, 0x7f0000002000, 0x601020)
	if a.Len() != 2 {
		t.Fatalf("Len = %d, want 2", a.Len())
	}
}

func TestStoreSnoopFlushes(t *testing.T) {
	a := small()
	const tramp, fn, got = 0x401020, 0x7f0000001000, 0x601018
	populate(a, tramp, fn, got)
	// An unrelated store does not flush (with overwhelming
	// probability in a fresh small filter).
	if a.SnoopStore(0x12345678) {
		t.Log("unrelated store flushed (bloom false positive); tolerated")
	}
	// A store to the GOT slot must flush: no false negatives.
	if !a.SnoopStore(got) {
		t.Fatal("GOT store did not flush the ABTB")
	}
	if _, ok := a.Lookup(tramp); ok {
		t.Fatal("mapping survived GOT store")
	}
	if a.Flushes() == 0 || a.FlushingStores() == 0 {
		t.Error("flush counters not updated")
	}
	// After the flush the bloom is clear: the same store no longer
	// hits.
	if a.SnoopStore(got) {
		t.Error("bloom filter not cleared by flush")
	}
}

// The architectural-safety property from §3.1: after ANY sequence of
// populates and stores, a mapping whose GOT slot was stored to since
// its insertion is never returned by Lookup.
func TestNoStaleRedirectProperty(t *testing.T) {
	f := func(seed uint64, ops []byte) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		a := New(Config{Entries: 8, Ways: 2, BloomBits: 128, BloomK: 3})
		// A small universe of trampolines with their GOT slots.
		const n = 6
		type binding struct{ tramp, got, fn uint64 }
		var bs [n]binding
		for i := range bs {
			bs[i] = binding{
				tramp: 0x401000 + uint64(i)*16,
				got:   0x601000 + uint64(i)*8,
				fn:    0x7f0000000000 + rng.Uint64()%1000*4096,
			}
		}
		current := map[uint64]uint64{} // tramp -> latest fn written via GOT
		for _, op := range ops {
			b := &bs[int(op)%n]
			switch (op / 7) % 2 {
			case 0: // retire a call+trampoline pair with the current fn
				fn := b.fn
				populate(a, b.tramp, fn, b.got)
				current[b.tramp] = fn
			case 1: // linker stores a new target into the GOT slot
				b.fn = 0x7f0000000000 + rng.Uint64()%1000*4096
				a.SnoopStore(b.got)
			}
			// Invariant: any redirect the ABTB gives equals the
			// last value that actually flowed through the pattern
			// for that trampoline, and no redirect may exist for a
			// trampoline whose GOT was stored after its insert.
			for _, bb := range bs {
				if got, ok := a.Lookup(bb.tramp); ok {
					if got != current[bb.tramp] && got != bb.fn {
						// It must match either the last retired
						// pattern value; a store always flushes,
						// so a stale value is impossible.
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestExplicitInvalidateMode(t *testing.T) {
	a := New(Config{Entries: 16, Ways: 4, ExplicitInvalidate: true})
	populate(a, 0x401020, 0x7f0000001000, 0x601018)
	// Stores are ignored in this mode.
	if a.SnoopStore(0x601018) {
		t.Error("explicit-invalidate mode flushed on store")
	}
	if _, ok := a.Lookup(0x401020); !ok {
		t.Error("mapping lost without explicit invalidate")
	}
	// Software invalidation clears it.
	a.Invalidate()
	if _, ok := a.Lookup(0x401020); ok {
		t.Error("mapping survived explicit Invalidate")
	}
}

func TestContextSwitchWithoutASIDsFlushes(t *testing.T) {
	a := small()
	populate(a, 0x401020, 0x7f0000001000, 0x601018)
	a.SwitchContext(2)
	if _, ok := a.Lookup(0x401020); ok {
		t.Error("mapping survived untagged context switch")
	}
	if a.ContextSwitches() != 1 {
		t.Errorf("switches = %d", a.ContextSwitches())
	}
}

// TestASIDsNeverAlias pins the ASID fold as injective: a mapping
// installed under one ASID never redirects a call made under another.
// An earlier multiplicative fold gave each of these pairs the same key
// for every trampoline.
func TestASIDsNeverAlias(t *testing.T) {
	for _, p := range [][2]uint64{{241, 330}, {2, 1099}, {6, 1103}} {
		a := New(Config{Entries: 16, Ways: 4, BloomBits: 256, BloomK: 3, ASIDs: true})
		a.SwitchContext(p[0])
		populate(a, 0x401020, 0x7f0000001000, 0x601018)
		a.SwitchContext(p[1])
		if fn, ok := a.Lookup(0x401020); ok {
			t.Errorf("ASID %d call redirected to %#x by ASID %d's mapping", p[1], fn, p[0])
		}
	}
}

// TestASIDKeyInjective checks the fold over random pairs drawn from
// the ranges it relies on (48-bit addresses, asidBits-bit ASIDs),
// including pairs that differ in one coordinate only.
func TestASIDKeyInjective(t *testing.T) {
	a := New(Config{Entries: 16, Ways: 4, BloomBits: 256, BloomK: 3, ASIDs: true})
	rng := rand.New(rand.NewPCG(1, 2))
	keyOf := func(tramp, asid uint64) uint64 {
		a.SwitchContext(asid)
		k, ok := a.key(tramp)
		if !ok {
			t.Fatalf("key(%#x) refused a 48-bit address", tramp)
		}
		return k
	}
	for i := 0; i < 100000; i++ {
		t1, a1 := rng.Uint64()>>16, rng.Uint64()>>(64-asidBits)
		t2, a2 := rng.Uint64()>>16, rng.Uint64()>>(64-asidBits)
		switch i % 3 {
		case 0:
			t2 = t1
		case 1:
			a2 = a1
		}
		if (t1 != t2 || a1 != a2) && keyOf(t1, a1) == keyOf(t2, a2) {
			t.Fatalf("(%#x, %d) and (%#x, %d) share a key", t1, a1, t2, a2)
		}
	}
}

// TestASIDRanges checks the ranges the fold relies on: an address
// wider than 48 bits never maps under ASIDs, and an ASID wider than
// asidBits is refused.
func TestASIDRanges(t *testing.T) {
	a := New(Config{Entries: 16, Ways: 4, BloomBits: 256, BloomK: 3, ASIDs: true})
	a.SwitchContext(3)
	wide := uint64(1)<<48 | 0x401020
	populate(a, wide, 0x7f0000001000, 0x601018)
	if a.Len() != 0 || a.Inserts() != 0 {
		t.Errorf("wide address mapped: len %d, inserts %d", a.Len(), a.Inserts())
	}
	if _, ok := a.Lookup(wide); ok {
		t.Error("wide address hit")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("SwitchContext(1<<%d) did not panic", asidBits)
		}
	}()
	a.SwitchContext(1 << asidBits)
}

func TestContextSwitchWithASIDs(t *testing.T) {
	a := New(Config{Entries: 16, Ways: 4, BloomBits: 256, BloomK: 3, ASIDs: true})
	a.SwitchContext(1)
	populate(a, 0x401020, 0x7f0000001000, 0x601018)
	a.SwitchContext(2)
	// Process 2 must not see process 1's mapping for the same VA.
	if _, ok := a.Lookup(0x401020); ok {
		t.Error("ASID-tagged mapping leaked across address spaces")
	}
	populate(a, 0x401020, 0x7f0000009000, 0x601018)
	// Back to process 1: its mapping survived.
	a.SwitchContext(1)
	fn, ok := a.Lookup(0x401020)
	if !ok || fn != 0x7f0000001000 {
		t.Errorf("process 1 mapping after switch back = %#x, %v", fn, ok)
	}
}

func TestCapacityEviction(t *testing.T) {
	a := small() // 16 entries
	for i := uint64(0); i < 64; i++ {
		populate(a, 0x401000+i*16, 0x7f0000000000+i*4096, 0x601000+i*8)
	}
	if a.Len() > 16 {
		t.Errorf("Len = %d exceeds capacity", a.Len())
	}
}

func TestResetStats(t *testing.T) {
	a := New(Config{Entries: 16, Ways: 4, BloomBits: 256, BloomK: 3, ASIDs: true})
	populate(a, 0x401020, 0x7f0000001000, 0x601018)
	a.Lookup(0x401020)
	a.SnoopStore(0x601018) // flushes (bloom hit)
	populate(a, 0x401020, 0x7f0000001000, 0x601018)
	a.SwitchContext(1) // counted, no flush under ASIDs
	a.SwitchContext(0)
	a.ResetStats()
	if a.Redirects() != 0 || a.Inserts() != 0 || a.Flushes() != 0 ||
		a.StoreSnoops() != 0 || a.FlushingStores() != 0 || a.ContextSwitches() != 0 {
		t.Error("ResetStats did not zero every counter")
	}
	// Stats only: the table contents survive a reset.
	if a.Len() != 1 {
		t.Errorf("ResetStats dropped table contents: Len = %d, want 1", a.Len())
	}
	if _, ok := a.Lookup(0x401020); !ok {
		t.Error("mapping lost across ResetStats")
	}
}

// TestFlushEntryPoints is the churn-sweep audit: every path that
// flushes the whole table — a snooped GOT store, the §3.4 explicit
// invalidate instruction, an untagged context switch — must clear the
// table AND the Bloom filter together, and count exactly one flush.  A
// half flush (table cleared, bloom stale) makes every later store a
// false-positive flush; the converse (bloom cleared, table stale)
// revives the stale-redirect bug the Bloom exists to prevent.  The
// non-flushing paths ride along as negative cases.
func TestFlushEntryPoints(t *testing.T) {
	const tramp, fn, got = 0x401020, 0x7f0000001000, 0x601018
	base := Config{Entries: 16, Ways: 4, BloomBits: 256, BloomK: 3}
	asids := base
	asids.ASIDs = true
	explicit := Config{Entries: 16, Ways: 4, ExplicitInvalidate: true}
	cases := []struct {
		name      string
		cfg       Config
		flush     func(*ABTB)
		wantFlush bool
	}{
		{"snooped GOT store", base, func(a *ABTB) { a.SnoopStore(got) }, true},
		{"Invalidate", base, func(a *ABTB) { a.Invalidate() }, true},
		{"Invalidate (explicit mode)", explicit, func(a *ABTB) { a.Invalidate() }, true},
		{"untagged SwitchContext", base, func(a *ABTB) { a.SwitchContext(7) }, true},
		{"tagged SwitchContext", asids, func(a *ABTB) { a.SwitchContext(7); a.SwitchContext(0) }, false},
		{"unrelated store", base, func(a *ABTB) { a.SnoopStore(0xdeadbeef00) }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := New(tc.cfg)
			populate(a, tramp, fn, got)
			tc.flush(a)
			if !tc.wantFlush {
				if a.Flushes() != 0 {
					t.Fatalf("flushes = %d, want 0", a.Flushes())
				}
				if _, ok := a.Lookup(tramp); !ok || a.Len() != 1 {
					t.Fatal("non-flushing path dropped the mapping")
				}
				return
			}
			if a.Flushes() != 1 {
				t.Errorf("flushes = %d, want exactly 1", a.Flushes())
			}
			if a.Len() != 0 {
				t.Errorf("Len = %d after flush, want 0", a.Len())
			}
			if _, ok := a.Lookup(tramp); ok {
				t.Error("mapping survived the flush")
			}
			// The Bloom filter must have been cleared with the table:
			// re-snooping the same GOT address before any re-insert
			// cannot hit (no entry is watching it), so it must not
			// flush again.
			if tc.cfg.ExplicitInvalidate {
				return // no bloom in this variant
			}
			if a.SnoopStore(got) {
				t.Error("bloom filter survived the flush: re-snoop of the dead GOT address flushed again")
			}
			// And the flushed table accepts a fresh pattern whose store
			// snoop works end to end.
			populate(a, tramp, fn, got)
			if _, ok := a.Lookup(tramp); !ok {
				t.Error("table did not repopulate after flush")
			}
			if !a.SnoopStore(got) {
				t.Error("re-inserted mapping's GOT store did not flush")
			}
		})
	}
}
