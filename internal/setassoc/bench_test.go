package setassoc

import (
	"math/rand/v2"
	"testing"
)

// structure is one table geometry the simulator builds with its
// default configuration.
type structure struct {
	name       string
	sets, ways int
}

var (
	// accessed are probed with AccessRun, as caches and TLBs probe.
	accessed = []structure{
		{"L1", 64, 8}, // L1I and L1D
		{"L2", 8192, 24},
		{"ITLB", 32, 4},
		{"DTLB", 64, 4},
	}
	// lookedUp are probed with Lookup and filled with Insert on a
	// miss, as the BTB and ABTB are.
	lookedUp = []structure{
		{"BTB", 512, 4},
		{"ABTB", 1, 256},
	}
)

// keyStream is a benchmark's probe sequence and the keys that warm the
// table before it.
type keyStream struct {
	name        string
	warm, probe []uint64
}

// streams returns two streams for s.  "fits" draws uniformly from
// exactly the table's capacity of keys, so after warmup every probe
// hits, at a random recency depth.  "thrashes" cycles through twice
// the capacity, so every probe of the LRU table misses and fills over
// a victim.  Every key's high bits are random, as a signature sees
// real addresses.
func streams(s structure) []keyStream {
	rng := rand.New(rand.NewPCG(uint64(s.sets), uint64(s.ways)))
	keys := func(perSet int) []uint64 {
		out := make([]uint64, s.sets*perSet)
		for i := range out {
			out[i] = rng.Uint64()&^uint64(s.sets-1) | uint64(i%s.sets)
		}
		return out
	}
	fit := keys(s.ways)
	probe := make([]uint64, max(len(fit), 1<<16))
	for i := range probe {
		probe[i] = fit[rng.IntN(len(fit))]
	}
	thrash := keys(2 * s.ways)
	return []keyStream{
		{"fits", fit, probe},
		{"thrashes", thrash, thrash},
	}
}

// hit keeps the compiler from discarding a benchmarked probe.
var hit bool

// BenchmarkAccessRun measures one cache-style access per op
// (AccessRun of one key) at each cache and TLB geometry.
func BenchmarkAccessRun(b *testing.B) {
	for _, s := range accessed {
		for _, ks := range streams(s) {
			b.Run(s.name+"/"+ks.name, func(b *testing.B) {
				t := New[struct{}](s.sets, s.ways)
				for _, k := range ks.warm {
					t.AccessRun(k, 1, struct{}{})
				}
				b.ResetTimer()
				for i, j := 0, 0; i < b.N; i++ {
					hit = t.AccessRun(ks.probe[j], 1, struct{}{})
					if j++; j == len(ks.probe) {
						j = 0
					}
				}
			})
		}
	}
}

// BenchmarkLookup measures one lookup per op, with an Insert on a
// miss, at the BTB and ABTB geometries.
func BenchmarkLookup(b *testing.B) {
	for _, s := range lookedUp {
		for _, ks := range streams(s) {
			b.Run(s.name+"/"+ks.name, func(b *testing.B) {
				t := New[uint64](s.sets, s.ways)
				for _, k := range ks.warm {
					t.Insert(k, k)
				}
				b.ResetTimer()
				for i, j := 0, 0; i < b.N; i++ {
					k := ks.probe[j]
					if _, hit = t.Lookup(k); !hit {
						t.Insert(k, k)
					}
					if j++; j == len(ks.probe) {
						j = 0
					}
				}
			})
		}
	}
}
