package pool

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/workload"
)

// drive runs a short warmup+measure cycle on sys and returns the
// counter snapshot — the same sequence runner.execute performs.
func drive(t *testing.T, w *workload.Workload, sys *core.System, seed uint64, warm, measure int) cpu.Counters {
	t.Helper()
	d := workload.NewDriver(w, sys, workload.DriverSeed(seed))
	if err := d.Warmup(warm); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(measure); err != nil {
		t.Fatal(err)
	}
	return sys.Counters()
}

// TestPooledSystemBitIdenticalToFresh: a system built from a pooled,
// COW-forked image produces counters bit-equal to one generated and
// linked from scratch.
func TestPooledSystemBitIdenticalToFresh(t *testing.T) {
	const seed = 5
	cfg := core.Enhanced(seed)

	fw := workload.Memcached(seed)
	fsys, err := fw.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh := drive(t, fw, fsys, seed, 10, 40)

	p := New(Options{})
	// Two pooled runs: the second reuses the already-forked master.
	for i := 0; i < 2; i++ {
		sys, w, hit, err := p.System("memcached", workload.Memcached, seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if wantHit := i == 1; hit != wantHit {
			t.Errorf("run %d: image hit = %v, want %v", i, hit, wantHit)
		}
		pooled := drive(t, w, sys, seed, 10, 40)
		if pooled != fresh {
			t.Errorf("run %d: pooled counters diverge from fresh construction:\npooled %+v\nfresh  %+v", i, pooled, fresh)
		}
	}
	st := p.Stats()
	if st.WorkloadMisses != 1 || st.ImageMisses != 1 || st.ImageHits != 1 {
		t.Errorf("stats = %+v, want 1 workload miss, 1 image miss, 1 image hit", st)
	}
	if st.Bytes <= 0 {
		t.Errorf("Bytes = %d, want > 0", st.Bytes)
	}
}

// TestConcurrentJobsShareOneMaster: many goroutines build and drive
// systems for the same key concurrently; generation and linking happen
// once, and every run's counters are bit-equal.  Run with -race.
func TestConcurrentJobsShareOneMaster(t *testing.T) {
	const seed, workers = 9, 8
	p := New(Options{})
	cfg := core.Base(seed)

	results := make([]cpu.Counters, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sys, w, _, err := p.System("memcached", workload.Memcached, seed, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = drive(t, w, sys, seed, 8, 30)
		}(g)
	}
	wg.Wait()

	for g := 1; g < workers; g++ {
		if results[g] != results[0] {
			t.Errorf("goroutine %d counters diverge:\n%+v\n%+v", g, results[g], results[0])
		}
	}
	st := p.Stats()
	if st.WorkloadMisses != 1 {
		t.Errorf("workload generated %d times under concurrency, want 1", st.WorkloadMisses)
	}
	if st.ImageMisses != 1 {
		t.Errorf("master linked %d times under concurrency, want 1", st.ImageMisses)
	}
	if st.ImageHits+st.ImageMisses != workers {
		t.Errorf("image hits+misses = %d, want %d", st.ImageHits+st.ImageMisses, workers)
	}
}

// TestImageKeyedByLinkOptions: configs differing only in hardware
// share one master; configs differing in linking do not.
func TestImageKeyedByLinkOptions(t *testing.T) {
	const seed = 3
	p := New(Options{})
	for _, cfg := range []core.Config{core.Base(seed), core.Enhanced(seed)} {
		if _, _, _, err := p.System("memcached", workload.Memcached, seed, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if st := p.Stats(); st.ImageMisses != 1 || st.ImageHits != 1 {
		t.Errorf("base+enhanced (same link options): misses=%d hits=%d, want 1/1", st.ImageMisses, st.ImageHits)
	}
	// Static linking changes the link product: new master.
	if _, _, _, err := p.System("memcached", workload.Memcached, seed, core.Static(seed)); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.ImageMisses != 2 {
		t.Errorf("static link reused a lazy master: misses=%d, want 2", st.ImageMisses)
	}
	if st := p.Stats(); st.WorkloadMisses != 1 {
		t.Errorf("workload regenerated: misses=%d, want 1", st.WorkloadMisses)
	}
}

// TestLRUEviction: the workload bound evicts the least recently used
// bundle together with its master images, and a re-request
// regenerates and relinks.
func TestLRUEviction(t *testing.T) {
	p := New(Options{MaxWorkloads: 2})
	for _, seed := range []uint64{1, 2, 3} { // seeds give distinct link layouts
		if _, _, _, err := p.System("memcached", workload.Memcached, seed, core.Base(seed)); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Images != 2 || st.Workloads != 2 {
		t.Errorf("cached images=%d workloads=%d, want 2/2", st.Images, st.Workloads)
	}
	if st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2 (seed 1's bundle and its image)", st.Evictions)
	}
	// Seed 1 was evicted; using it again is a miss that still works.
	_, _, hit, err := p.System("memcached", workload.Memcached, 1, core.Base(1))
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("evicted master reported as hit")
	}
	if st := p.Stats(); st.WorkloadMisses != 4 {
		t.Errorf("workload misses = %d, want 4: an evicted bundle must be regenerated", st.WorkloadMisses)
	}
}

// TestEvictionUnderConcurrency: requesters cycle through more distinct
// (workload, seed) keys than the bounds hold while forkers keep
// building systems from bundles they fetched earlier, so entries are
// evicted while other goroutines fork them, and ImageSystem often runs
// after its bundle has left the pool.  Every system must still run
// bit-identical to a fresh link, and afterwards the pool must hold no
// image outside a cached workload and account exactly the bytes of the
// bundles and images it holds.  Run with -race.
func TestEvictionUnderConcurrency(t *testing.T) {
	const seeds, rounds = 5, 3
	cfgs := func(seed uint64) []core.Config { return []core.Config{core.Base(seed), core.Static(seed)} }
	fresh := make(map[uint64][]cpu.Counters)
	for seed := uint64(1); seed <= seeds; seed++ {
		for _, cfg := range cfgs(seed) {
			w := workload.Memcached(seed)
			sys, err := w.NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fresh[seed] = append(fresh[seed], drive(t, w, sys, seed, 2, 6))
		}
	}
	check := func(w *workload.Workload, sys *core.System, seed uint64, i int) {
		if got := drive(t, w, sys, seed, 2, 6); got != fresh[seed][i] {
			t.Errorf("seed %d config %d: counters diverge from a fresh link", seed, i)
		}
	}

	p := New(Options{MaxWorkloads: 2})

	// The deterministic case first: the bundle is fetched, evicted by
	// two newer keys, and only then handed to ImageSystem.
	w1, _ := p.Workload("memcached", workload.Memcached, 1)
	for _, seed := range []uint64{2, 3} {
		if _, _, _, err := p.System("memcached", workload.Memcached, seed, core.Base(seed)); err != nil {
			t.Fatal(err)
		}
	}
	before := p.Stats()
	sys, hit, err := p.ImageSystem("memcached", 1, w1, core.Base(1))
	if err != nil {
		t.Fatal(err)
	}
	check(w1, sys, 1, 0)
	if after := p.Stats(); hit || after.Images != before.Images || after.Workloads != before.Workloads ||
		after.Bytes != before.Bytes {
		t.Errorf("ImageSystem on an evicted bundle: hit=%v, stats %+v -> %+v, want a private link that caches nothing", hit, before, after)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := uint64(0); k < seeds; k++ {
					seed := 1 + (k+uint64(g))%seeds
					i := (g + r) % 2
					if g%2 == 0 {
						// Requester: fetch and link in one call.
						sys, w, _, err := p.System("memcached", workload.Memcached, seed, cfgs(seed)[i])
						if err != nil {
							t.Error(err)
							return
						}
						check(w, sys, seed, i)
						continue
					}
					// Forker: fetch the bundle, let the others churn the
					// LRU, then fork from it twice.
					w, _ := p.Workload("memcached", workload.Memcached, seed)
					for rep := 0; rep < 2; rep++ {
						sys, _, err := p.ImageSystem("memcached", seed, w, cfgs(seed)[i])
						if err != nil {
							t.Error(err)
							return
						}
						check(w, sys, seed, i)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	p.mu.Lock()
	defer p.mu.Unlock()
	images, bytes := 0, int64(0)
	for _, e := range p.workloads {
		images += len(e.images)
		bytes += int64(e.bytes)
		for _, img := range e.images {
			img.mu.Lock()
			bytes += int64(img.bytes)
			img.mu.Unlock()
		}
	}
	if images != p.images || p.lru.Len() != len(p.workloads) {
		t.Errorf("pool holds %d images in %d workloads, counts %d images and %d LRU entries",
			images, len(p.workloads), p.images, p.lru.Len())
	}
	if len(p.workloads) > 2 {
		t.Errorf("pool holds %d workloads past the bound 2", len(p.workloads))
	}
	if got := p.m.bytes.Value(); got != bytes {
		t.Errorf("bytes gauge = %d, cached bundles and images hold %d", got, bytes)
	}
}

// TestImageBytesTracksRetainedHeap: the byte gauge counts what the
// pool holds for a whole entry (the generated bundle, and its master's
// copy-on-write pages, module code and compiled Program), so for one
// pooled firefox entry it lands within a factor of 2 of the heap the
// pool retains for it, both once the bundle is generated and once its
// master is linked and forked.
func TestImageBytesTracksRetainedHeap(t *testing.T) {
	const seed = 1
	p := New(Options{})

	heap := func() float64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	check := func(step string, retained float64) {
		gauge := float64(p.Stats().Bytes)
		t.Logf("%s: gauge %.0f bytes, retained heap %.0f bytes", step, gauge, retained)
		if gauge < retained/2 || gauge > retained*2 {
			t.Errorf("%s: dlsim_pool_bytes = %.0f, want within a factor of 2 of the %.0f bytes retained", step, gauge, retained)
		}
	}
	before := heap()
	w, _ := p.Workload("firefox", workload.Firefox, seed)
	check("bundle", heap()-before)
	if _, _, err := p.ImageSystem("firefox", seed, w, core.Enhanced(seed)); err != nil {
		t.Fatal(err)
	}
	check("bundle and master", heap()-before)
	runtime.KeepAlive(p)
}
