// Package pool is the shared artifact pool behind the job engine: a
// content-keyed, immutable cache of generated workloads and linked
// program images.
//
// Every simulation job historically re-ran two pure, expensive setup
// phases — workload generation (a function of (workload, seed)) and
// linking (a function of (workload, seed, linker.Options)) — before a
// single request was measured.  For parameter-sweep traffic (one
// workload, many hardware configs or measurement budgets), that setup
// dominates; this package is the software analogue of the paper's
// observation that per-call redundant work belongs in a shared,
// snoop-kept cache rather than on the hot path.
//
// # Sharing contract
//
//   - Workloads are immutable after generation (see workload.Workload),
//     so one generated bundle backs any number of concurrent systems.
//   - A linked image's mutable state — GOT words rebound by the lazy
//     resolver, workload data stores, the stack, the resolution
//     counter — is never shared: System forks the pooled master
//     copy-on-write (linker.Image.Fork), so each job gets memory
//     bit-identical to a fresh link while sharing every untouched
//     page and every module's code.
//   - Masters are built once per key under a per-entry singleflight.
//     Each master image, with its compiled Programs, lives inside the
//     entry of the workload it was linked from, and one LRU over
//     workload entries bounds both: evicting a workload drops its
//     images with it, so no image outlives its workload and nothing is
//     kept that a later job could not fork.  A bundle holds at most one
//     master per distinct link mode, so the LRU's bound of MaxWorkloads
//     bundles bounds the images too.
//
// # Sizing
//
// A bundle is worth keeping only while a job that will fork it is
// running or queued.  Under fresh-seed traffic nothing forks a bundle
// again once its Base/Enhanced pair has, so the pool is sized by the
// runner's concurrency, not by its history: BundlesPerWorker bundles
// per worker.  The runner keeps a sweep's reuse inside that bound by
// submitting the configs of one seed next to each other (see
// runner.SubmitBatch).
//
// Because a forked image starts bit-identical to a fresh link and all
// microarchitectural state (CPU, caches, TLBs, ABTB) is constructed
// per job, pooled results are bit-identical to unpooled ones — proven
// by internal/experiments.TestGoldenCounters running through the pool
// and by runner.TestPooledBitIdenticalToUnpooled.
package pool

import (
	"container/list"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/linker"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// BundlesPerWorker is the bound, in workload bundles, that a runner
// gives its pool per worker.  A running job holds one bundle.  The jobs
// that will fork it again are its seed's other configs, which a sweep
// submits right behind it, so they start before more than one further
// bundle per worker has entered the pool.  Every bundle beyond that is
// several MB that no queued job will fork: at seed 1 an apache bundle
// is 5.1 MB generated, 2.5 MB image and 5.0 MB Program.
const BundlesPerWorker = 2

// Options configures a Pool.
type Options struct {
	// MaxWorkloads bounds the cached workload bundles: beyond it the
	// least recently used bundle is dropped together with its images.
	// Zero or negative means BundlesPerWorker × runtime.NumCPU(), the
	// bound of a runner at its default worker count.
	MaxWorkloads int

	// Metrics is the registry the pool's hit/miss/byte instruments
	// register in.  Nil means a private registry.
	Metrics *telemetry.Registry
}

// WorkloadKey identifies one generated workload bundle.
type WorkloadKey struct {
	Workload string
	Seed     uint64
}

// workloadEntry is one cached bundle and the master images linked from
// it, keyed by linker.Options (comparable by value, so the key captures
// binding mode, ASLR, layout seed, ifunc level and PLT flavour).  The
// bundle is built once via the sync.Once; elem, images and bytes are
// guarded by Pool.mu and never change once the entry has left the pool.
type workloadEntry struct {
	once   sync.Once
	w      *workload.Workload
	elem   *list.Element // position in the LRU
	images map[linker.Options]*imageEntry
	bytes  uint64 // the bundle's share of the byte gauge (its images count their own)
}

// imageEntry is one master image.  mu serialises Fork calls on the
// master (the first fork freezes its pages); once guards the build.
type imageEntry struct {
	once    sync.Once
	mu      sync.Mutex
	img     *linker.Image
	bytes   uint64
	evicted bool // guarded by mu; set once the entry is out of the pool, stopping byte accounting
	err     error

	// progs caches compiled trace programs for this master, keyed by
	// L1I line size (the only hardware parameter baked into the
	// compiled form).  Forks share the master's module code, so one
	// Program drives every system built from this entry
	// (cpu.TestCompiledForkSharing); compilation happens once per
	// (image, line size), off every job's hot path.  Guarded by
	// progMu, separate from mu so compilation never blocks forks.
	progMu sync.Mutex
	progs  map[int]*cpu.Program
}

// program returns the compiled trace program for the entry's master at
// the given L1I line size, compiling it on first use.
func (e *imageEntry) program(lineBytes int) *cpu.Program {
	e.progMu.Lock()
	defer e.progMu.Unlock()
	if p, ok := e.progs[lineBytes]; ok {
		// Masters never churn (Load/Unload privatize forks first), so a
		// cached program can only go stale if that invariant breaks —
		// recompile rather than hand out a trace into freed code.
		if p.Generation() == e.img.Generation() {
			return p
		}
		delete(e.progs, lineBytes)
	}
	p := cpu.Compile(e.img, lineBytes)
	if e.progs == nil {
		e.progs = make(map[int]*cpu.Program, 1)
	}
	e.progs[lineBytes] = p
	return p
}

// residentBytes returns the heap the entry holds for its master: the
// master's copy-on-write pages and code, and its compiled Programs.
func (e *imageEntry) residentBytes() uint64 {
	e.progMu.Lock()
	defer e.progMu.Unlock()
	b := e.img.SharedBytes() + e.img.CodeBytes()
	for _, p := range e.progs {
		b += p.Bytes()
	}
	return b
}

// Pool caches generated workloads and the master images linked from
// them.  All methods are safe for concurrent use.
type Pool struct {
	maxWorkloads int

	mu        sync.Mutex
	workloads map[WorkloadKey]*workloadEntry
	lru       *list.List // of WorkloadKey, front = least recently used
	images    int        // master images held, summed over workloads

	m poolMetrics
}

// poolMetrics is the pool's instrument set (see DESIGN.md §10):
//
//	dlsim_pool_workload_hits_total    counter  generations skipped
//	dlsim_pool_workload_misses_total  counter  workloads generated
//	dlsim_pool_image_hits_total       counter  links skipped (COW fork served)
//	dlsim_pool_image_misses_total     counter  master images linked
//	dlsim_pool_evictions_total        counter  entries dropped by the LRU bound
//	dlsim_pool_workloads              gauge    cached workload bundles
//	dlsim_pool_images                 gauge    cached master images
//	dlsim_pool_bytes                  gauge    resident entries (bundles, masters' COW pages, code, Programs)
type poolMetrics struct {
	reg            *telemetry.Registry
	workloadHits   *telemetry.Counter
	workloadMisses *telemetry.Counter
	imageHits      *telemetry.Counter
	imageMisses    *telemetry.Counter
	evictions      *telemetry.Counter
	workloads      *telemetry.Gauge
	images         *telemetry.Gauge
	bytes          *telemetry.Gauge
}

// New returns a Pool with the given options.
func New(opts Options) *Pool {
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	maxW := opts.MaxWorkloads
	if maxW <= 0 {
		maxW = BundlesPerWorker * runtime.NumCPU()
	}
	return &Pool{
		maxWorkloads: maxW,
		workloads:    make(map[WorkloadKey]*workloadEntry),
		lru:          list.New(),
		m: poolMetrics{
			reg:            reg,
			workloadHits:   reg.Counter("dlsim_pool_workload_hits_total", "Workload generations served from the artifact pool."),
			workloadMisses: reg.Counter("dlsim_pool_workload_misses_total", "Workload bundles generated into the artifact pool."),
			imageHits:      reg.Counter("dlsim_pool_image_hits_total", "Link steps skipped: systems built by COW-forking a pooled image."),
			imageMisses:    reg.Counter("dlsim_pool_image_misses_total", "Master images linked into the artifact pool."),
			evictions:      reg.Counter("dlsim_pool_evictions_total", "Artifact-pool entries dropped by the LRU bound."),
			workloads:      reg.Gauge("dlsim_pool_workloads", "Workload bundles cached in the artifact pool."),
			images:         reg.Gauge("dlsim_pool_images", "Master images cached in the artifact pool."),
			bytes:          reg.Gauge("dlsim_pool_bytes", "Resident bytes of artifact-pool entries: generated workload bundles and their master images' copy-on-write pages, module code and compiled Programs."),
		},
	}
}

// Metrics returns the registry holding the pool's instruments.
func (p *Pool) Metrics() *telemetry.Registry { return p.m.reg }

// Workload returns the generated bundle for (name, seed), generating
// it with gen on first use.  gen must be deterministic in the seed
// (every registered generator is); concurrent callers for the same key
// share one generation.  The returned bundle is immutable — callers
// must not modify it.
func (p *Pool) Workload(name string, gen func(uint64) *workload.Workload, seed uint64) (*workload.Workload, bool) {
	key := WorkloadKey{Workload: name, Seed: seed}
	p.mu.Lock()
	e, hit := p.workloads[key]
	if hit {
		p.lru.MoveToBack(e.elem)
	} else {
		e = &workloadEntry{}
		p.workloads[key] = e
		e.elem = p.lru.PushBack(key)
		p.evictLocked()
	}
	p.mu.Unlock()

	if hit {
		p.m.workloadHits.Inc()
	} else {
		p.m.workloadMisses.Inc()
	}
	e.once.Do(func() {
		e.w = gen(seed)
		b := e.w.Bytes()
		p.mu.Lock()
		if p.workloads[key] == e { // still pooled: count it until evicted
			e.bytes = b
			p.m.bytes.Add(int64(b))
		}
		p.mu.Unlock()
	})
	return e.w, hit
}

// System builds a private simulation system for (name, seed) under
// cfg: the workload comes from the bundle cache, the image from the
// bundle's master images (linked on first use), and the returned
// System wraps a copy-on-write fork of the master, so its GOT, data,
// stack and hardware state are exclusively the caller's.  The second
// return is the shared workload bundle; imageHit reports whether the
// link step was skipped.
func (p *Pool) System(name string, gen func(uint64) *workload.Workload, seed uint64, cfg core.Config) (*core.System, *workload.Workload, bool, error) {
	w, _ := p.Workload(name, gen, seed)
	sys, hit, err := p.ImageSystem(name, seed, w, cfg)
	return sys, w, hit, err
}

// ImageSystem is System for callers that already fetched the bundle
// via Workload (the runner times the two cache steps under separate
// trace spans).  w must be the bundle cached under (name, seed).  If
// that bundle has left the pool since, the master is linked for this
// call alone and not cached: it would otherwise outlive its workload.
func (p *Pool) ImageSystem(name string, seed uint64, w *workload.Workload, cfg core.Config) (*core.System, bool, error) {
	var e *imageEntry
	hit := false
	p.mu.Lock()
	if we, ok := p.workloads[WorkloadKey{Workload: name, Seed: seed}]; !ok {
		e = &imageEntry{evicted: true} // never pooled: no bytes to account
	} else {
		p.lru.MoveToBack(we.elem)
		if e, hit = we.images[cfg.Linking]; !hit {
			e = &imageEntry{}
			if we.images == nil {
				we.images = make(map[linker.Options]*imageEntry, 1)
			}
			we.images[cfg.Linking] = e
			p.images++
			p.evictLocked()
		}
	}
	p.mu.Unlock()

	e.once.Do(func() {
		img, err := linker.Link(w.App, w.Libs, cfg.Linking)
		if err != nil {
			e.err = fmt.Errorf("pool: linking %s/seed=%d: %w", name, seed, err)
			return
		}
		e.img = img
	})
	if e.err != nil {
		// Failed links are not retried under this key until evicted;
		// they are deterministic in the inputs, so a retry would fail
		// identically.
		return nil, false, e.err
	}
	if hit {
		p.m.imageHits.Inc()
	} else {
		p.m.imageMisses.Inc()
	}

	// The shared compiled trace program, so forks do not each compile
	// their own.  A Program depends only on the module code and the
	// line size, so pooled results stay bit-identical to unpooled ones,
	// whose CPU compiles at its first Run.
	prog := e.program(cfg.Hardware.L1I.LineBytes)

	// Serialise forks of this master: the first fork freezes its
	// written pages, later forks just share the base layer.
	e.mu.Lock()
	img := e.img.Fork()
	if b := e.residentBytes(); !e.evicted && b != e.bytes {
		p.m.bytes.Add(int64(b) - int64(e.bytes))
		e.bytes = b
	}
	e.mu.Unlock()

	sys := core.NewSystemFromImage(img, cfg)
	if err := sys.CPU().SetProgram(prog); err != nil {
		return nil, false, fmt.Errorf("pool: installing compiled trace for %s/seed=%d: %w", name, seed, err)
	}
	return sys, hit, nil
}

// evictLocked drops least-recently-used workloads, each with its
// master images, while the bound is exceeded, and refreshes the size
// gauges.  Caller holds p.mu.  Entries still being built or forked
// elsewhere stay valid for their holders: eviction only unlinks them
// from the cache, it cannot invalidate outstanding forks (which keep
// the shared page layer alive independently).
func (p *Pool) evictLocked() {
	for p.lru.Len() > p.maxWorkloads {
		key := p.lru.Remove(p.lru.Front()).(WorkloadKey)
		e := p.workloads[key]
		delete(p.workloads, key)
		p.m.bytes.Add(-int64(e.bytes))
		for _, img := range e.images {
			img.mu.Lock() // bytes is updated under img.mu on the fork path
			p.m.bytes.Add(-int64(img.bytes))
			img.bytes = 0
			img.evicted = true
			img.mu.Unlock()
		}
		p.images -= len(e.images)
		p.m.evictions.Add(uint64(1 + len(e.images)))
	}
	p.m.workloads.Set(int64(p.lru.Len()))
	p.m.images.Set(int64(p.images))
}

// Stats is a point-in-time snapshot of pool effectiveness.
type Stats struct {
	WorkloadHits   uint64 `json:"workload_hits"`
	WorkloadMisses uint64 `json:"workload_misses"`
	ImageHits      uint64 `json:"image_hits"`
	ImageMisses    uint64 `json:"image_misses"`
	Evictions      uint64 `json:"evictions"`
	Workloads      int    `json:"workloads"`
	Images         int    `json:"images"`
	Bytes          int64  `json:"bytes"` // generated bundles, and their masters' COW pages, module code and compiled Programs
}

// Stats reads the pool's instruments.
func (p *Pool) Stats() Stats {
	return Stats{
		WorkloadHits:   p.m.workloadHits.Value(),
		WorkloadMisses: p.m.workloadMisses.Value(),
		ImageHits:      p.m.imageHits.Value(),
		ImageMisses:    p.m.imageMisses.Value(),
		Evictions:      p.m.evictions.Value(),
		Workloads:      int(p.m.workloads.Value()),
		Images:         int(p.m.images.Value()),
		Bytes:          p.m.bytes.Value(),
	}
}
