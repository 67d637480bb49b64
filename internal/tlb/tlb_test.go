package tlb

import (
	"math/rand/v2"
	"testing"

	"repro/internal/mem"
)

func small() *TLB {
	return New(Config{Name: "t", Entries: 8, Ways: 2, MissPenalty: 30})
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"ok", Config{Entries: 8, Ways: 2}, false},
		{"zero entries", Config{Ways: 2}, true},
		{"zero ways", Config{Entries: 8}, true},
		{"npot sets", Config{Entries: 12, Ways: 2}, true},
		{"indivisible", Config{Entries: 9, Ways: 2}, true},
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
	tb := small()
	if pen := tb.Access(0x400123); pen != 30 {
		t.Errorf("cold access penalty = %d, want 30", pen)
	}
	if pen := tb.Access(0x400fff); pen != 0 {
		t.Errorf("same-page access penalty = %d, want 0", pen)
	}
	if pen := tb.Access(0x401000); pen != 30 {
		t.Errorf("next-page access penalty = %d, want 30", pen)
	}
	if tb.Misses() != 2 || tb.Accesses() != 3 {
		t.Errorf("misses/accesses = %d/%d, want 2/3", tb.Misses(), tb.Accesses())
	}
}

func TestAccessRange(t *testing.T) {
	tb := small()
	// 16 bytes ending on a page boundary straddle two pages.
	pen := tb.AccessRange(mem.PageSize-8, 16)
	if pen != 60 {
		t.Errorf("straddling penalty = %d, want 60", pen)
	}
	if pen := tb.AccessRange(0, 0); pen != 0 {
		t.Errorf("zero-size re-access penalty = %d, want 0", pen)
	}
}

func TestFlush(t *testing.T) {
	tb := small()
	tb.Access(0x400000)
	tb.Flush()
	if pen := tb.Access(0x400000); pen != 30 {
		t.Error("entry survived Flush")
	}
}

func TestCapacityConflicts(t *testing.T) {
	tb := small() // 4 sets x 2 ways
	// 3 pages mapping to the same set (vpn stride = set count = 4).
	pages := []uint64{0, 4, 8}
	for _, p := range pages {
		tb.Access(p << mem.PageShift)
	}
	// Page 0 was LRU and must have been evicted.
	if pen := tb.Access(0); pen == 0 {
		t.Error("conflicting page still resident")
	}
}

func TestDefaults(t *testing.T) {
	i, d := DefaultITLB(), DefaultDTLB()
	if err := i.Config().Validate(); err != nil {
		t.Error(err)
	}
	if err := d.Config().Validate(); err != nil {
		t.Error(err)
	}
	if i.Config().Entries >= d.Config().Entries {
		t.Error("expected D-TLB larger than I-TLB")
	}
	i.Access(0x1000)
	i.ResetStats()
	if i.Accesses() != 0 {
		t.Error("ResetStats did not zero counters")
	}
}

// TestAccessRepeatPageMatchesSingleAccesses drives two identical TLBs
// with one seeded stream: one applies each run with
// AccessRepeatPage(vpn, n), the other with n single Accesses to
// addresses in the page.  Penalties, counters and every page's
// residency must agree after every run.
func TestAccessRepeatPageMatchesSingleAccesses(t *testing.T) {
	run, one := small(), small()
	rng := rand.New(rand.NewPCG(7, 13))
	const pages = 40
	for op := 0; op < 20000; op++ {
		vpn := rng.Uint64N(pages)
		if op%997 == 996 {
			run.Flush()
			one.Flush()
		}
		n := 1 + rng.IntN(6)
		got := run.AccessRepeatPage(vpn, n)
		want := 0
		for i := 0; i < n; i++ {
			want += one.Access(vpn<<mem.PageShift | rng.Uint64N(mem.PageSize))
		}
		if got != want {
			t.Fatalf("op %d: AccessRepeatPage(%d, %d) = %d cycles, single accesses %d", op, vpn, n, got, want)
		}
		if run.Accesses() != one.Accesses() || run.Misses() != one.Misses() {
			t.Fatalf("op %d: accesses/misses %d/%d, single accesses %d/%d", op,
				run.Accesses(), run.Misses(), one.Accesses(), one.Misses())
		}
		for p := uint64(0); p < pages; p++ {
			_, a := run.t.Peek(p)
			_, b := one.t.Peek(p)
			if a != b {
				t.Fatalf("op %d: residency of page %d differs", op, p)
			}
		}
	}
}
