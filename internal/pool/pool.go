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
//     page and the whole decoded-instruction map.
//   - Masters are built once per key under a per-entry singleflight,
//     and both caches are LRU-bounded so a long-lived service's
//     footprint tracks its working set, not its submission history.
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
	"sync"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/linker"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Defaults for the LRU bounds.  A workload bundle is a few MB of
// generated objects; a master image's COW layer is mostly its
// pre-touched data pages.  The defaults comfortably hold the whole
// evaluation matrix (4 workloads × a handful of seeds and link modes)
// while bounding adversarial many-seed traffic.
const (
	DefaultMaxWorkloads = 32
	DefaultMaxImages    = 128
)

// Options configures a Pool.
type Options struct {
	// MaxWorkloads / MaxImages bound the two caches (least recently
	// used entries are dropped beyond them).  Zero means the defaults;
	// negative means unbounded.
	MaxWorkloads int
	MaxImages    int

	// Metrics is the registry the pool's hit/miss/byte instruments
	// register in.  Nil means a private registry.
	Metrics *telemetry.Registry
}

// WorkloadKey identifies one generated workload bundle.
type WorkloadKey struct {
	Workload string
	Seed     uint64
}

// ImageKey identifies one linked master image: the generated bundle
// plus everything that determines the link product.  linker.Options
// is comparable by value, so the key captures binding mode, ASLR,
// layout seed, ifunc level and PLT flavour.
type ImageKey struct {
	WorkloadKey
	Linking linker.Options
}

// workloadEntry is one cached bundle; built once via its sync.Once.
type workloadEntry struct {
	once sync.Once
	w    *workload.Workload
	elem *list.Element // position in the workload LRU (guarded by Pool.mu)
}

// imageEntry is one cached master image.  mu serialises Fork calls on
// the master (the first fork freezes its pages); once guards the
// build.
type imageEntry struct {
	once    sync.Once
	mu      sync.Mutex
	img     *linker.Image
	bytes   uint64
	evicted bool // guarded by mu; stops byte accounting after eviction
	err     error
	elem    *list.Element // position in the image LRU (guarded by Pool.mu)

	// progs caches compiled trace programs for this master, keyed by
	// L1I line size (the only hardware parameter baked into the
	// compiled form).  Forks share the master's decoded-instruction
	// index, so one Program drives every system built from this entry
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

// Pool caches generated workloads and linked master images.  All
// methods are safe for concurrent use.
type Pool struct {
	maxWorkloads int
	maxImages    int

	mu        sync.Mutex
	workloads map[WorkloadKey]*workloadEntry
	images    map[ImageKey]*imageEntry
	wlLRU     *list.List // of WorkloadKey, front = oldest
	imgLRU    *list.List // of ImageKey, front = oldest

	m poolMetrics
}

// poolMetrics is the pool's instrument set (see DESIGN.md §10):
//
//	dlsim_pool_workload_hits_total    counter  generations skipped
//	dlsim_pool_workload_misses_total  counter  workloads generated
//	dlsim_pool_image_hits_total       counter  links skipped (COW fork served)
//	dlsim_pool_image_misses_total     counter  master images linked
//	dlsim_pool_evictions_total        counter  entries dropped by the LRU bounds
//	dlsim_pool_workloads              gauge    cached workload bundles
//	dlsim_pool_images                 gauge    cached master images
//	dlsim_pool_image_bytes            gauge    resident master memory (COW layers)
type poolMetrics struct {
	reg            *telemetry.Registry
	workloadHits   *telemetry.Counter
	workloadMisses *telemetry.Counter
	imageHits      *telemetry.Counter
	imageMisses    *telemetry.Counter
	evictions      *telemetry.Counter
	workloads      *telemetry.Gauge
	images         *telemetry.Gauge
	imageBytes     *telemetry.Gauge
}

// New returns a Pool with the given options.
func New(opts Options) *Pool {
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	maxW, maxI := opts.MaxWorkloads, opts.MaxImages
	if maxW == 0 {
		maxW = DefaultMaxWorkloads
	}
	if maxI == 0 {
		maxI = DefaultMaxImages
	}
	return &Pool{
		maxWorkloads: maxW,
		maxImages:    maxI,
		workloads:    make(map[WorkloadKey]*workloadEntry),
		images:       make(map[ImageKey]*imageEntry),
		wlLRU:        list.New(),
		imgLRU:       list.New(),
		m: poolMetrics{
			reg:            reg,
			workloadHits:   reg.Counter("dlsim_pool_workload_hits_total", "Workload generations served from the artifact pool."),
			workloadMisses: reg.Counter("dlsim_pool_workload_misses_total", "Workload bundles generated into the artifact pool."),
			imageHits:      reg.Counter("dlsim_pool_image_hits_total", "Link steps skipped: systems built by COW-forking a pooled image."),
			imageMisses:    reg.Counter("dlsim_pool_image_misses_total", "Master images linked into the artifact pool."),
			evictions:      reg.Counter("dlsim_pool_evictions_total", "Artifact-pool entries dropped by the LRU bounds."),
			workloads:      reg.Gauge("dlsim_pool_workloads", "Workload bundles cached in the artifact pool."),
			images:         reg.Gauge("dlsim_pool_images", "Master images cached in the artifact pool."),
			imageBytes:     reg.Gauge("dlsim_pool_image_bytes", "Resident bytes of pooled master images' COW page layers."),
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
	if !hit {
		e = &workloadEntry{}
		p.workloads[key] = e
		e.elem = p.wlLRU.PushBack(key)
		p.evictLocked()
	} else if e.elem != nil {
		p.wlLRU.MoveToBack(e.elem)
	}
	p.mu.Unlock()

	if hit {
		p.m.workloadHits.Inc()
	} else {
		p.m.workloadMisses.Inc()
	}
	e.once.Do(func() { e.w = gen(seed) })
	return e.w, hit
}

// System builds a private simulation system for (name, seed) under
// cfg: the workload comes from the bundle cache, the image from the
// master-image cache (linked on first use), and the returned System
// wraps a copy-on-write fork of the master, so its GOT, data, stack
// and hardware state are exclusively the caller's.  The second return
// is the shared workload bundle; imageHit reports whether the link
// step was skipped.
func (p *Pool) System(name string, gen func(uint64) *workload.Workload, seed uint64, cfg core.Config) (*core.System, *workload.Workload, bool, error) {
	w, _ := p.Workload(name, gen, seed)
	sys, hit, err := p.systemFor(ImageKey{WorkloadKey{name, seed}, cfg.Linking}, w, cfg)
	return sys, w, hit, err
}

// ImageSystem is System for callers that already fetched the bundle
// via Workload (the runner times the two cache steps under separate
// trace spans).  w must be the bundle cached under (name, seed).
func (p *Pool) ImageSystem(name string, seed uint64, w *workload.Workload, cfg core.Config) (*core.System, bool, error) {
	return p.systemFor(ImageKey{WorkloadKey{name, seed}, cfg.Linking}, w, cfg)
}

// systemFor serves cfg from the image cache, linking the master on
// first use.
func (p *Pool) systemFor(key ImageKey, w *workload.Workload, cfg core.Config) (*core.System, bool, error) {
	p.mu.Lock()
	e, hit := p.images[key]
	if !hit {
		e = &imageEntry{}
		p.images[key] = e
		e.elem = p.imgLRU.PushBack(key)
		p.evictLocked()
	} else if e.elem != nil {
		p.imgLRU.MoveToBack(e.elem)
	}
	p.mu.Unlock()

	e.once.Do(func() {
		img, err := linker.Link(w.App, w.Libs, cfg.Linking)
		if err != nil {
			e.err = fmt.Errorf("pool: linking %s/seed=%d: %w", key.Workload, key.Seed, err)
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

	// Serialise forks of this master: the first fork freezes its
	// written pages, later forks just share the base layer.
	e.mu.Lock()
	img := e.img.Fork()
	if b := e.img.SharedBytes(); !e.evicted && b != e.bytes {
		p.m.imageBytes.Add(int64(b) - int64(e.bytes))
		e.bytes = b
	}
	e.mu.Unlock()

	sys := core.NewSystemFromImage(img, cfg)
	// Install the shared compiled trace program, so forks do not each
	// compile their own.  A Program depends only on the instruction map
	// and the line size, so pooled results stay bit-identical to
	// unpooled ones, whose CPU compiles at its first Run.
	if err := sys.CPU().SetProgram(e.program(cfg.Hardware.L1I.LineBytes)); err != nil {
		return nil, false, fmt.Errorf("pool: installing compiled trace for %s/seed=%d: %w", key.Workload, key.Seed, err)
	}
	return sys, hit, nil
}

// evictLocked drops least-recently-used entries beyond the bounds and
// refreshes the size gauges.  Caller holds p.mu.  Entries still being
// built or forked elsewhere stay valid for their holders: eviction
// only unlinks them from the cache, it cannot invalidate outstanding
// forks (which keep the shared page layer alive independently).
func (p *Pool) evictLocked() {
	if p.maxWorkloads > 0 {
		for p.wlLRU.Len() > p.maxWorkloads {
			key := p.wlLRU.Remove(p.wlLRU.Front()).(WorkloadKey)
			p.workloads[key].elem = nil
			delete(p.workloads, key)
			p.m.evictions.Inc()
		}
	}
	if p.maxImages > 0 {
		for p.imgLRU.Len() > p.maxImages {
			key := p.imgLRU.Remove(p.imgLRU.Front()).(ImageKey)
			e := p.images[key]
			e.elem = nil
			delete(p.images, key)
			e.mu.Lock() // bytes is updated under e.mu on the fork path
			p.m.imageBytes.Add(-int64(e.bytes))
			e.bytes = 0
			e.evicted = true
			e.mu.Unlock()
			p.m.evictions.Inc()
		}
	}
	p.m.workloads.Set(int64(p.wlLRU.Len()))
	p.m.images.Set(int64(p.imgLRU.Len()))
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
	ImageBytes     int64  `json:"image_bytes"`
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
		ImageBytes:     p.m.imageBytes.Value(),
	}
}
