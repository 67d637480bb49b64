// Package workload generates the four synthetic applications the
// evaluation runs: Apache (SPECweb 2009), Memcached (CloudSuite),
// MySQL (TPC-C), and Firefox (Peacekeeper).
//
// The paper's hardware proposal only interacts with a program through
// its library-call structure: how many distinct PLT trampolines it
// exercises (Table 3), how often (Table 2's trampoline instructions
// per kilo-instruction), with what popularity skew (Figure 4), and
// with what surrounding cache/TLB/branch behaviour (Table 4's base
// columns).  Each generator therefore builds an application + library
// bundle whose *structure* is calibrated to the paper's measurements
// of the real software, while the code itself is synthetic:
//
//   - libraries export functions whose bodies mix ALU work, loads and
//     stores over per-library data, conditional branches, and
//     cross-library calls (which produce inter-library trampolines,
//     §2.2's "one in each PLT" effect);
//   - request handlers call a tiered set of library functions: a hot
//     tier called on every request, warm tiers gated by conditional
//     branches with moderate probability, and cold tiers behind
//     nested gates with small probability — reproducing the steep
//     (Apache, Memcached) and shallow (Firefox) rank/frequency curves
//     of Figure 4;
//   - every dynamic decision is a deterministic function of the
//     instruction address and its execution count, so request
//     sequences replay identically on every hardware configuration.
package workload

import (
	"context"
	"fmt"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/objfile"
	"repro/internal/stats"
)

// RequestClass is one request type of a workload (e.g. a SPECweb
// request kind, a Memcached GET, a TPC-C transaction).
type RequestClass struct {
	Name   string
	Entry  string  // entry symbol in the app object
	Weight float64 // relative frequency in the mixed request stream
}

// Workload is a generated application bundle.
//
// A Workload is immutable after generation: NewSystem only reads the
// objects (see core.NewSystem), and Drivers read Classes without
// writing them.  One generated Workload may therefore back any number
// of concurrent systems and drivers — the sharing contract
// internal/pool relies on to generate each (workload, seed) once.
type Workload struct {
	Name    string
	App     *objfile.Object
	Libs    []*objfile.Object
	Classes []RequestClass

	// Churn, when non-nil, makes drivers periodically unload and
	// reload library modules mid-stream (see ChurnPlan).  The plan and
	// its objects are immutable like the rest of the Workload; all
	// mutable churn state lives in the Driver and the driven system's
	// image.
	Churn *ChurnPlan
}

// Bytes returns the heap the bundle's generated objects hold (see
// objfile.Object.Bytes): the executable, the libraries and every churn
// generation, each counted once.
func (w *Workload) Bytes() uint64 {
	n := w.App.Bytes()
	for _, o := range w.Libs {
		n += o.Bytes()
	}
	if w.Churn != nil {
		for _, s := range w.Churn.Slots {
			for _, o := range s.Gens[1:] { // generation 0 is one of Libs
				n += o.Bytes()
			}
		}
	}
	return n
}

// NewSystem links the workload under the given system configuration.
func (w *Workload) NewSystem(cfg core.Config) (*core.System, error) {
	return core.NewSystem(w.App, w.Libs, cfg)
}

// Class returns the request class named name, or an error.
func (w *Workload) Class(name string) (RequestClass, error) {
	for _, c := range w.Classes {
		if c.Name == name {
			return c, nil
		}
	}
	return RequestClass{}, fmt.Errorf("workload %s: no request class %q", w.Name, name)
}

// Driver replays a mixed request stream against a system and collects
// per-class latency samples.
type Driver struct {
	w   *Workload
	sys *core.System
	rng *rand.Rand
	cum []float64 // cumulative class weights

	// Churn state: requests since driver creation (all phases), slot
	// rotation cursor, and each slot's currently loaded generation.
	churnOps  int
	rotations int
	slotGen   []int
}

// DriverSeedOffset decorrelates the request-interleaving RNG from the
// generation/layout RNG streams that already consumed the raw spec
// seed.  Every measurement harness must apply the same offset — a
// drift between call sites silently changes request streams and thus
// every published number — so the offset lives here, next to the
// driver it seeds, and callers go through DriverSeed.
const DriverSeedOffset = 17

// DriverSeed maps a job/suite seed to the driver's interleaving seed.
// runner.execute and every experiments call site use this helper; see
// TestDriverSeedPinned for the pinned value.
func DriverSeed(seed uint64) uint64 { return seed + DriverSeedOffset }

// NewDriver returns a driver over the workload and system.  The seed
// fixes the class-interleaving order; drivers for systems under
// comparison must use the same seed (derive it with DriverSeed).
func NewDriver(w *Workload, sys *core.System, seed uint64) *Driver {
	cum := make([]float64, len(w.Classes))
	total := 0.0
	for i, c := range w.Classes {
		total += c.Weight
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &Driver{w: w, sys: sys, rng: rand.New(rand.NewPCG(seed, 0xd21e7)), cum: cum}
}

// System returns the driven system.
func (d *Driver) System() *core.System { return d.sys }

// Workload returns the driven workload.
func (d *Driver) Workload() *Workload { return d.w }

func (d *Driver) pick() RequestClass {
	x := d.rng.Float64()
	for i, c := range d.cum {
		if x < c {
			return d.w.Classes[i]
		}
	}
	return d.w.Classes[len(d.w.Classes)-1]
}

// Warmup pre-binds every GOT slot (the steady state of a long-running
// server, where lazy resolution finished hours ago), serves n mixed
// requests to warm the caches, TLBs, predictors and ABTB, and then
// clears measurement state.
func (d *Driver) Warmup(n int) error {
	return d.WarmupContext(context.Background(), n)
}

// WarmupContext is Warmup with cancellation: it checks ctx between
// requests, so a cancelled or expired context stops the warmup at a
// request boundary.  The request sequence is identical to Warmup's.
func (d *Driver) WarmupContext(ctx context.Context, n int) error {
	d.sys.Image().BindAll()
	for i := 0; i < n; i++ {
		select {
		case <-ctx.Done():
			return fmt.Errorf("workload %s: warmup request %d: %w", d.w.Name, i, ctx.Err())
		default:
		}
		if _, err := d.sys.RunOnce(d.pick().Entry); err != nil {
			return fmt.Errorf("workload %s: warmup request %d: %w", d.w.Name, i, err)
		}
		if err := d.churnTick(); err != nil {
			return fmt.Errorf("workload %s: warmup request %d: %w", d.w.Name, i, err)
		}
	}
	d.sys.ResetStats()
	return nil
}

// Run serves n mixed requests, returning per-class latency samples in
// microseconds.
func (d *Driver) Run(n int) (map[string]*stats.Sample, error) {
	return d.RunContext(context.Background(), n)
}

// RunContext is Run with cancellation: it checks ctx between requests,
// so a cancelled or expired context stops the measurement at a request
// boundary.  The request sequence is identical to Run's.
func (d *Driver) RunContext(ctx context.Context, n int) (map[string]*stats.Sample, error) {
	out := make(map[string]*stats.Sample, len(d.w.Classes))
	for _, c := range d.w.Classes {
		out[c.Name] = &stats.Sample{}
	}
	for i := 0; i < n; i++ {
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("workload %s: request %d: %w", d.w.Name, i, ctx.Err())
		default:
		}
		c := d.pick()
		res, err := d.sys.RunOnce(c.Entry)
		if err != nil {
			return nil, fmt.Errorf("workload %s: request %d (%s): %w", d.w.Name, i, c.Name, err)
		}
		out[c.Name].Add(core.Micros(res.Cycles))
		if err := d.churnTick(); err != nil {
			return nil, fmt.Errorf("workload %s: request %d (%s): %w", d.w.Name, i, c.Name, err)
		}
	}
	return out, nil
}

// WindowDelta is the measured portion of one sampling window: the
// counter deltas over Requests detailed requests.
type WindowDelta struct {
	Counters cpu.Counters
	Requests int
}

// SampledRun is the result of RunSampledContext: one WindowDelta per
// measurement window plus the pooled per-class latency samples of all
// measured requests.
type SampledRun struct {
	Windows []WindowDelta
	Classes map[string]*stats.Sample

	// Per-window request budget split, recorded for reporting.
	FastForwarded int // architectural-only requests per window
	Warmed        int // detailed, discarded requests per window
	Measured      int // detailed, measured requests per window
}

// RunSampled is RunSampledContext with a background context.
func (d *Driver) RunSampled(total, windows, warmup int) (*SampledRun, error) {
	return d.RunSampledContext(context.Background(), total, windows, warmup)
}

// RunSampledContext serves total mixed requests split into windows
// evenly spaced sampling windows, SMARTS-style: most of each window is
// fast-forwarded with architectural fidelity only (GOT resolutions and
// data stores happen, caches/TLBs/predictors are not touched), then
// warmup detailed requests rebuild microarchitectural state and are
// discarded, and the remaining ~10% of the window is measured in full
// detail.  The request stream — class picks and library churn — is
// identical to RunContext's, so the measured windows are genuine
// excerpts of the exact run.
func (d *Driver) RunSampledContext(ctx context.Context, total, windows, warmup int) (*SampledRun, error) {
	if windows < 1 {
		return nil, fmt.Errorf("workload %s: sampled run needs >= 1 window, got %d", d.w.Name, windows)
	}
	if warmup < 0 {
		return nil, fmt.Errorf("workload %s: negative sampled warmup %d", d.w.Name, warmup)
	}
	perWin := total / windows
	if perWin < warmup+1 {
		return nil, fmt.Errorf("workload %s: %d requests over %d windows leaves %d per window, need >= warmup+1 = %d",
			d.w.Name, total, windows, perWin, warmup+1)
	}
	measured := perWin / 10
	if measured < 1 {
		measured = 1
	}
	if measured > perWin-warmup {
		measured = perWin - warmup
	}
	ff := perWin - warmup - measured

	out := &SampledRun{
		Classes:       make(map[string]*stats.Sample, len(d.w.Classes)),
		FastForwarded: ff,
		Warmed:        warmup,
		Measured:      measured,
	}
	for _, c := range d.w.Classes {
		out.Classes[c.Name] = &stats.Sample{}
	}

	// serve advances the request stream by one request.  Bookkeeping
	// (class pick, churn tick) is shared by all three phases so the
	// stream never depends on the window split.
	serve := func(i int, detailed, record bool) error {
		select {
		case <-ctx.Done():
			return fmt.Errorf("workload %s: sampled request %d: %w", d.w.Name, i, ctx.Err())
		default:
		}
		c := d.pick()
		if !detailed {
			if err := d.sys.CPU().FastForwardSymbol(c.Entry); err != nil {
				return fmt.Errorf("workload %s: sampled request %d (%s): %w", d.w.Name, i, c.Name, err)
			}
			return d.churnTick()
		}
		res, err := d.sys.RunOnce(c.Entry)
		if err != nil {
			return fmt.Errorf("workload %s: sampled request %d (%s): %w", d.w.Name, i, c.Name, err)
		}
		if record {
			out.Classes[c.Name].Add(core.Micros(res.Cycles))
		}
		return d.churnTick()
	}

	req := 0
	for w := 0; w < windows; w++ {
		for i := 0; i < ff; i++ {
			if err := serve(req, false, false); err != nil {
				return nil, err
			}
			req++
		}
		for i := 0; i < warmup; i++ {
			if err := serve(req, true, false); err != nil {
				return nil, err
			}
			req++
		}
		before := d.sys.Counters()
		for i := 0; i < measured; i++ {
			if err := serve(req, true, true); err != nil {
				return nil, err
			}
			req++
		}
		out.Windows = append(out.Windows, WindowDelta{
			Counters: d.sys.Counters().Sub(before),
			Requests: measured,
		})
	}
	return out, nil
}

// tier is a group of library functions gated at a common execution
// probability.
type tier struct {
	names []string
	pct   int // execution probability per request, percent (1..100)

	// maxBurst makes call frequency bursty: names are called in loops
	// of ~maxBurst consecutive invocations.  Real programs call their
	// hottest library functions (memcpy, strlen, malloc) many times
	// in inner loops; this is what gives Figure 4 its steep head and
	// what makes a 16-entry ABTB skip >75% of calls in Figure 5 —
	// bursts of the same trampoline hit even a tiny LRU table.
	maxBurst int

	// zipf, when true, halves the burst length every four ranks, so
	// the head of the tier dominates Zipf-style; when false every
	// name gets the same burst.
	zipf bool
}

// burstAt returns the expected consecutive-call count for rank r.
func (t tier) burstAt(r int) int {
	b := t.maxBurst
	if t.zipf {
		for i := 0; i < r/4 && b > 1; i++ {
			b /= 2
		}
	}
	if b < 1 {
		b = 1
	}
	return b
}

// emitTieredCalls appends call sites for every tier to the handler
// body.  Hot functions (pct == 100) are called unconditionally with
// pad() invoked before each call to emit the surrounding non-call
// work.  Gated functions cost one conditional per call site when
// skipped; tiers below 5% are wrapped block-wise in an outer gate so
// that a request that exercises none of a cold block pays one branch
// for the whole block.
func emitTieredCalls(f *objfile.Func, rng *rand.Rand, tiers []tier, pad func(*objfile.Func)) {
	for _, t := range tiers {
		switch {
		case t.pct >= 100:
			for r, name := range t.names {
				burst := t.burstAt(r)
				if burst <= 1 {
					if pad != nil {
						pad(f)
					}
					f.Call(name)
					continue
				}
				// A burst loop: pad + call, repeated ~burst times
				// (geometric with the matching mean).
				start := len(f.Body)
				if pad != nil {
					pad(f)
				}
				f.Call(name)
				bias := 100 - 100/burst
				if bias > 97 {
					bias = 97
				}
				f.LoopBack(uint8(bias), len(f.Body)-start)
			}
		case t.pct >= 5:
			for _, name := range t.names {
				if t.maxBurst > 1 {
					// Gated burst: when the gate passes, the
					// function is called ~maxBurst times in a row.
					f.CondSkip(uint8(100-t.pct), 2)
					f.Call(name)
					f.LoopBack(uint8(100-100/t.maxBurst), 1)
				} else {
					f.CondSkip(uint8(100-t.pct), 1)
					f.Call(name)
				}
			}
		default:
			// Nested gating: outer block gate at outerPct, inner
			// per-call gate such that outer*inner == t.pct.
			const blockSize = 8
			outerPct := t.pct * 10
			if outerPct > 50 {
				outerPct = 50
			}
			innerPct := t.pct * 100 / outerPct
			for start := 0; start < len(t.names); start += blockSize {
				end := start + blockSize
				if end > len(t.names) {
					end = len(t.names)
				}
				block := t.names[start:end]
				// Inner block: one gate + one call per name.
				f.CondSkip(uint8(100-outerPct), 2*len(block))
				for _, name := range block {
					f.CondSkip(uint8(100-innerPct), 1)
					f.Call(name)
				}
			}
		}
	}
	_ = rng
}

// libParams shapes one generated library.
type libParams struct {
	name       string
	nFuncs     int
	dataBytes  uint64 // per-library data region
	bodyALU    [2]int // [min,max) ALU instructions per function body
	bodyLoads  [2]int // [min,max) loads per body
	loadSpan   uint64 // slots each load sweeps
	stores     int    // stores per body
	condEvery  int    // emit a conditional roughly every N body instrs (0 = none)
	condBias   uint8  // taken probability of body conditionals
	loopPct    int    // percent of functions containing a hot loop
	loopIters  uint8  // LoopBack continue bias (e.g. 75 => ~4 iterations)
	crossCalls int    // number of functions that call into a later library
	crossPct   uint8  // execution probability of each cross call
	ifuncs     int    // GNU indirect functions exported (§2.4.1)
}

// genLib generates one library object.  Cross-library calls target
// functions in crossTargets (functions of previously generated or
// later-to-be-generated libraries — the caller guarantees they will
// exist), forming the inter-library trampolines of §2.2.
func genLib(rng *rand.Rand, p libParams, crossTargets []string) (*objfile.Object, []string) {
	o := objfile.New(p.name)
	o.AddData("data", p.dataBytes)
	names := make([]string, p.nFuncs)
	for i := range names {
		names[i] = fmt.Sprintf("%s_fn%03d", p.name, i)
	}
	for i, name := range names {
		f := o.NewFunc(name)
		alu := p.bodyALU[0]
		if p.bodyALU[1] > p.bodyALU[0] {
			alu += rng.IntN(p.bodyALU[1] - p.bodyALU[0])
		}
		loads := p.bodyLoads[0]
		if p.bodyLoads[1] > p.bodyLoads[0] {
			loads += rng.IntN(p.bodyLoads[1] - p.bodyLoads[0])
		}
		hasLoop := p.loopPct > 0 && rng.IntN(100) < p.loopPct
		emitBody(f, rng, bodySpec{
			region:    "data",
			regionLen: p.dataBytes,
			alu:       alu,
			loads:     loads,
			span:      p.loadSpan,
			stores:    p.stores,
			condEvery: p.condEvery,
			condBias:  p.condBias,
			loop:      hasLoop,
			loopIters: p.loopIters,
		})
		if i < p.crossCalls && len(crossTargets) > 0 {
			target := crossTargets[rng.IntN(len(crossTargets))]
			if p.crossPct >= 100 {
				f.Call(target)
			} else {
				f.CondSkip(100-p.crossPct, 1)
				f.Call(target)
			}
		}
		f.Ret()
	}
	// Indirect functions: hardware-selected wrappers over existing
	// implementations, as glibc exports its string routines (§2.4.1).
	// Callers reach them through the PLT like any dynamic symbol, so
	// they appear in the returned name list alongside plain functions.
	for i := 0; i < p.ifuncs && p.nFuncs >= 2; i++ {
		name := fmt.Sprintf("%s_ifn%02d", p.name, i)
		o.DeclareIFunc(name, names[rng.IntN(p.nFuncs)], names[rng.IntN(p.nFuncs)])
		names = append(names, name)
	}
	return o, names
}

// emitKernel appends a hot computation loop: roughly alu+2
// instructions per iteration with one load sweeping span slots, and an
// expected iteration count of 1/(1-bias/100).  Kernels dilute
// library-call density (low trampoline PKI) with highly reusable code
// (low I-cache pressure) and predictable backward branches.
func emitKernel(f *objfile.Func, rng *rand.Rand, region string, regionLen uint64, alu int, span uint64, bias uint8) {
	start := len(f.Body)
	half := alu / 2
	f.ALU(half)
	off := uint64(0)
	if regionLen > span*8 {
		off = (rng.Uint64() % (regionLen - span*8)) &^ 7
	}
	f.Load(region, off, span)
	f.ALU(alu - half)
	f.LoopBack(bias, len(f.Body)-start)
}

// bodySpec shapes one function body.
type bodySpec struct {
	region    string
	regionLen uint64
	alu       int
	loads     int
	span      uint64
	stores    int
	condEvery int
	condBias  uint8
	loop      bool
	loopIters uint8
}

// emitBody writes a function body: interleaved ALU and memory work
// with conditional branches, optionally wrapped in a hot loop.
func emitBody(f *objfile.Func, rng *rand.Rand, s bodySpec) {
	span := s.span
	if span == 0 {
		span = 1
	}
	if span*8 > s.regionLen {
		span = s.regionLen / 8
		if span == 0 {
			span = 1
		}
	}
	maxOff := uint64(0)
	if s.regionLen > span*8 {
		maxOff = s.regionLen - span*8
	}
	randOff := func() uint64 {
		if maxOff == 0 {
			return 0
		}
		return (rng.Uint64() % maxOff) &^ 7
	}

	work := func() int {
		emitted := 0
		loads := s.loads
		alu := s.alu
		sinceCond := 0
		for alu > 0 || loads > 0 {
			if alu > 0 {
				chunk := 3
				if chunk > alu {
					chunk = alu
				}
				f.ALU(chunk)
				alu -= chunk
				emitted += chunk
				sinceCond += chunk
			}
			if loads > 0 {
				f.Load(s.region, randOff(), span)
				loads--
				emitted++
				sinceCond++
			}
			if s.condEvery > 0 && sinceCond >= s.condEvery && (alu > 1 || loads > 1) {
				// Branch over a small slice of upcoming work.
				f.CondSkip(s.condBias, 1)
				f.ALU(1)
				alu-- // the skippable instruction comes out of the budget
				if alu < 0 {
					alu = 0
				}
				emitted += 2
				sinceCond = 0
			}
		}
		return emitted
	}

	if s.loop {
		n := work()
		if n > 0 {
			f.LoopBack(s.loopIters, n)
		}
	} else {
		work()
	}
	for i := 0; i < s.stores; i++ {
		f.Store(s.region, randOff(), span, rng.Uint64())
	}
}
