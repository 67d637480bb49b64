package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/abtb"
	"repro/internal/bloom"
	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/linker"
	"repro/internal/runner"
	"repro/internal/setassoc"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/tlb"
	simwl "repro/internal/workload"
)

// The in-process probes time layers the daemon exposes no span for, by
// calling their public functions directly in the benchmark's process.
// They run after the traced phase, with the daemon stopped.

// runProbes runs every probe.  bodies are result answers captured from
// the daemon, the payloads of the store probe.
func (b *bench) runProbes(ctx context.Context, bodies [][]byte) ([]metric, error) {
	out := structureProbes(b.seed)
	put, get, err := storeProbe(filepath.Join(b.work, "probe-store"), bodies)
	if err != nil {
		return nil, err
	}
	hit, err := submitHitProbe(ctx, b.seed)
	if err != nil {
		return nil, err
	}
	compile, err := compileProbe(b.seed)
	if err != nil {
		return nil, err
	}
	out = append(out,
		metric{"store.put_us_p50", put, "us"},
		metric{"store.get_us_p50", get, "us"},
		metric{"runner.submit_hit_us_p50", hit, "us"},
		metric{"cpu.compile_ms_mean", compile, "ms"},
	)
	kernel, err := kernelProbes(ctx)
	if err != nil {
		return nil, err
	}
	return append(out, kernel...), nil
}

// sink keeps the structure probes' results live.
var sink uint64

// nsPerOp runs fn over n inputs three times and returns the median
// time per call.
func nsPerOp(n int, fn func(i int)) float64 {
	var reps [3]float64
	for r := range reps {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		reps[r] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	sort.Float64s(reps[:])
	return reps[1]
}

// structureProbes drive each modelled structure with a seeded stream
// that mixes a hot working set with scattered misses.
func structureProbes(seed uint64) []metric {
	const n = 1 << 20
	rng := rand.New(rand.NewPCG(seed, 0x57c0de))
	addrs := make([]uint64, n)
	for i := range addrs {
		if rng.IntN(10) < 9 {
			addrs[i] = rng.Uint64N(32 << 10) // hot 32 KiB
		} else {
			addrs[i] = rng.Uint64N(64 << 20) // scattered over 64 MiB
		}
	}

	l1d := cache.DefaultL1D(cache.DefaultL2())
	dtlb := tlb.DefaultDTLB()
	table := setassoc.New[uint64](64, 4)
	pred := branch.New(branch.DefaultConfig())
	ab := abtb.New(abtb.DefaultConfig())
	for i := uint64(0); i < 200; i++ {
		ab.OnRetireCall(0x401000 + i*16)
		ab.OnRetireIndirectBranch(0x401000+i*16, 0x7f0000000000+i, 0x601000+i*8)
	}
	filter := bloom.New(32768, 4)
	for i := uint64(0); i < 400; i++ {
		filter.Add(0x601000 + i*8)
	}

	return []metric{
		{"cache.access_ns", nsPerOp(n, func(i int) { sink += uint64(l1d.Access(addrs[i])) }), "ns"},
		{"tlb.access_ns", nsPerOp(n, func(i int) { sink += uint64(dtlb.Access(addrs[i] << 6)) }), "ns"},
		{"setassoc.lookup_ns", nsPerOp(n, func(i int) {
			k := addrs[i] >> 6
			if v, ok := table.Lookup(k); ok {
				sink += v
			} else {
				table.Insert(k, k)
			}
		}), "ns"},
		{"branch.predict_ns", nsPerOp(n, func(i int) {
			pc := addrs[i] & 0xfff8
			pred.UpdateCond(pc, pred.PredictCond(pc) != (addrs[i]&0x70 == 0))
		}), "ns"},
		{"abtb.lookup_ns", nsPerOp(n, func(i int) {
			if f, ok := ab.Lookup(0x401000 + addrs[i]%400*16); ok {
				sink += f
			}
		}), "ns"},
		{"bloom.test_ns", nsPerOp(n, func(i int) {
			if filter.Test(0x601000 + addrs[i]&0x3ff8) {
				sink++
			}
		}), "ns"},
	}
}

// storeProbe puts and gets the captured bodies in a fresh store and
// returns the median put and get latency in microseconds.
func storeProbe(dir string, bodies [][]byte) (putUS, getUS float64, err error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	defer st.Close()
	var puts, gets stats.Sample
	const rounds = 50
	for r := 0; r < rounds; r++ {
		for i, body := range bodies {
			id := fmt.Sprintf("probe-%d-%d", r, i)
			start := time.Now()
			if err := st.Put(id, body); err != nil {
				return 0, 0, err
			}
			puts.Add(float64(time.Since(start)) / float64(time.Microsecond))
		}
	}
	for r := 0; r < rounds; r++ {
		for i, body := range bodies {
			id := fmt.Sprintf("probe-%d-%d", r, i)
			start := time.Now()
			got, ok, err := st.Get(id)
			gets.Add(float64(time.Since(start)) / float64(time.Microsecond))
			if err != nil || !ok || !bytes.Equal(got, body) {
				return 0, 0, fmt.Errorf("store probe: %s read back wrong (found %v, err %v)", id, ok, err)
			}
		}
	}
	return puts.Percentile(50), gets.Percentile(50), nil
}

// submitHitProbe returns the median time of Runner.Submit on a key
// whose result is cached, in microseconds.
func submitHitProbe(ctx context.Context, seed uint64) (float64, error) {
	r := runner.New(runner.Options{Workers: 1})
	defer r.Close()
	spec := coldSmallRound(seed, 0)[0]
	if _, err := r.Run(ctx, spec); err != nil {
		return 0, err
	}
	var s stats.Sample
	for i := 0; i < 2000; i++ {
		start := time.Now()
		_, reused, err := r.Submit(spec)
		s.Add(float64(time.Since(start)) / float64(time.Microsecond))
		if err != nil || !reused {
			return 0, fmt.Errorf("submit-hit probe: reused %v, err %v", reused, err)
		}
	}
	return s.Percentile(50), nil
}

// compileProbe links the master images of the first cold-small jobs and
// returns the mean time cpu.Compile takes on each, in milliseconds.
func compileProbe(seed uint64) (float64, error) {
	var s stats.Sample
	for _, spec := range coldSmallRound(seed, 0)[:12] {
		ws, _ := runner.WorkloadByName(spec.Workload)
		cfg, err := spec.Config.Config(spec.Seed)
		if err != nil {
			return 0, err
		}
		w := ws.Gen(spec.Seed)
		img, err := linker.Link(w.App, w.Libs, cfg.Linking)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		cpu.Compile(img, cfg.Hardware.L1I.LineBytes)
		s.Add(ms(time.Since(start)))
	}
	return s.Mean(), nil
}

// probeWarm is the warmup the kernel probes run before timing: enough
// to bind the GOT and fill the caches, which is all a throughput probe
// needs.
const probeWarm = 10

// kernelProbes time the execution kernel on one fixed Enhanced job per
// app: exact simulation (instructions per second) and sampled
// simulation, whose fast-forward rate is its wall time minus the
// detailed requests at the exact rate.
func kernelProbes(ctx context.Context) ([]metric, error) {
	var out []metric
	var sampledMS stats.Summary
	var ffReqs, ffSec float64
	for _, app := range runner.WorkloadNames() {
		exact, err := runner.JobSpec{Workload: app, Config: runner.Enhanced, Seed: goldenSeed, Scale: goldenScale}.Normalize()
		if err != nil {
			return nil, err
		}
		d, err := probeDriver(ctx, exact)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := d.RunContext(ctx, exact.Measure); err != nil {
			return nil, err
		}
		wall := time.Since(start)
		instrs := float64(d.System().Counters().Instructions)
		out = append(out, metric{"cpu.minstr_per_s." + app, instrs / wall.Seconds() / 1e6, "Minstr/s"})
		perReq := wall.Seconds() / float64(exact.Measure)

		sampled, err := runner.JobSpec{Workload: app, Config: runner.Enhanced, Seed: goldenSeed, Scale: 1,
			SampleWindows: sampleWindows}.Normalize()
		if err != nil {
			return nil, err
		}
		d, err = probeDriver(ctx, sampled)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		run, err := d.RunSampledContext(ctx, sampled.Measure, sampled.SampleWindows, sampled.SampleWarmup)
		if err != nil {
			return nil, err
		}
		swall := time.Since(start)
		sampledMS.Add(ms(swall))
		detailed := float64(len(run.Windows) * (run.Warmed + run.Measured))
		ffReqs += float64(len(run.Windows) * run.FastForwarded)
		ffSec += swall.Seconds() - detailed*perReq
	}
	if ffSec <= 0 {
		return nil, fmt.Errorf("sampled runs took %.3f s less than their detailed requests at the exact rate", -ffSec)
	}
	return append(out,
		metric{"cpu.sampled_measure_ms_mean", sampledMS.Mean(), "ms"},
		metric{"cpu.ff_kreq_per_s", ffReqs / ffSec / 1e3, "kreq/s"},
	), nil
}

// probeDriver builds the job's system unpooled, with its own compiled
// program, and warms it.
func probeDriver(ctx context.Context, spec runner.JobSpec) (*simwl.Driver, error) {
	ws, _ := runner.WorkloadByName(spec.Workload)
	cfg, err := spec.Config.Config(spec.Seed)
	if err != nil {
		return nil, err
	}
	w := ws.Gen(spec.Seed)
	sys, err := w.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	if err := sys.CPU().SetProgram(cpu.Compile(sys.Image(), cfg.Hardware.L1I.LineBytes)); err != nil {
		return nil, err
	}
	d := simwl.NewDriver(w, sys, simwl.DriverSeed(spec.Seed))
	if err := d.WarmupContext(ctx, probeWarm); err != nil {
		return nil, err
	}
	return d, nil
}
