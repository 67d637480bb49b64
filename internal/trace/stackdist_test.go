package trace

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestStackDistancesSimple(t *testing.T) {
	r := NewRecorder()
	// Stream: A B A  -> A cold, B cold, A at distance 2 (B between).
	r.Record(1)
	r.Record(2)
	r.Record(1)
	s := r.Summary()
	if s.Distinct != 2 {
		t.Errorf("cold = %d, want 2", s.Distinct)
	}
	if len(s.Dist) != 3 || s.Dist[2] != 1 {
		t.Errorf("Dist = %v, want [0 0 1]", s.Dist)
	}
	// Immediate repeat: distance 1.
	r2 := NewRecorder()
	r2.Record(5)
	r2.Record(5)
	if s2 := r2.Summary(); s2.Distinct != 1 || s2.Dist[1] != 1 {
		t.Errorf("repeat: dist=%v cold=%d", s2.Dist, s2.Distinct)
	}
}

func TestStackDistancesEmpty(t *testing.T) {
	s := NewRecorder().Summary()
	if s.Dist != nil || s.Distinct != 0 || s.Calls != 0 || len(s.Counts) != 0 {
		t.Errorf("empty recorder summarised as %+v", s)
	}
	if got := s.SkipCurve([]int{4}); got[0] != 0 {
		t.Error("empty curve nonzero")
	}
	if s.WorkingSet(0.9) != 0 {
		t.Error("empty working set nonzero")
	}
	// A restored summary keeps Distinct and Calls, not Counts or Dist.
	restored := Summary{Distinct: 7, Calls: 40}
	if got := restored.SkipCurve([]int{1, 16}); got[0] != 0 || got[1] != 0 || restored.WorkingSet(0.9) != 0 {
		t.Errorf("restored summary: curve %v, working set %d", got, restored.WorkingSet(0.9))
	}
}

// The central equivalence: the histogram built call by call must
// match the explicit LRU replay at every size.  Hits at size n minus
// hits at size n-1 is the number of calls at stack distance n, so
// agreement at every size from 1 to the distinct count pins the
// histogram exactly.
func TestSkipCurveFromDistancesMatchesReplay(t *testing.T) {
	check := func(seed uint64, keys int, accesses int) {
		rng := rand.New(rand.NewPCG(seed, 0))
		s := newStream()
		for i := 0; i < accesses; i++ {
			// Mix of zipf-ish hot keys and bursts.
			k := uint64(rng.ExpFloat64() * float64(keys) / 4)
			reps := 1 + rng.IntN(4)
			for j := 0; j < reps; j++ {
				s.call(k)
			}
		}
		sum := s.rec.Summary()
		sizes := make([]int, sum.Distinct+1)
		for i := range sizes {
			sizes[i] = i + 1
		}
		replay := skipCurve(s.seq, sizes)
		analytic := sum.SkipCurve(sizes)
		for i := range sizes {
			if math.Abs(replay[i]-analytic[i]) > 1e-12 {
				t.Fatalf("seed %d size %d: replay %.6f != analytic %.6f",
					seed, sizes[i], replay[i], analytic[i])
			}
		}
		var hits uint64
		for _, n := range sum.Dist {
			hits += n
		}
		if hits+uint64(sum.Distinct) != sum.Calls || sum.Calls != uint64(len(s.seq)) {
			t.Fatalf("seed %d: %d hits + %d cold != %d calls", seed, hits, sum.Distinct, sum.Calls)
		}
	}
	for seed := uint64(0); seed < 8; seed++ {
		check(seed, 50, 2000)
	}
	check(99, 5, 100)
	check(100, 300, 5000)
}

func TestSkipCurveEquivalenceProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		s := newStream()
		for _, k := range raw {
			s.call(uint64(k % 16))
		}
		sizes := []int{1, 2, 4, 8, 16, 32}
		a := skipCurve(s.seq, sizes)
		b := s.rec.Summary().SkipCurve(sizes)
		for i := range sizes {
			if math.Abs(a[i]-b[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWorkingSet(t *testing.T) {
	r := NewRecorder()
	// 4 keys round-robin in bursts of 3: hits are mostly distance 1,
	// with one distance-4 hit per rotation.
	for round := 0; round < 100; round++ {
		for k := uint64(0); k < 4; k++ {
			r.Record(k)
			r.Record(k)
			r.Record(k)
		}
	}
	s := r.Summary()
	// Two thirds of hits (the in-burst repeats) need only 1 entry.
	if ws := s.WorkingSet(0.6); ws != 1 {
		t.Errorf("WorkingSet(0.6) = %d, want 1", ws)
	}
	// Capturing everything needs the full rotation of 4.
	if ws := s.WorkingSet(1.0); ws != 4 {
		t.Errorf("WorkingSet(1.0) = %d, want 4", ws)
	}
}
