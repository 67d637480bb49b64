// Package experiments regenerates every table and figure of the
// paper's evaluation (§5), plus the ablations called out in DESIGN.md.
//
// Each experiment is a method on Suite returning typed rows and a
// paper-style textual rendering.  The Suite lazily runs each workload
// once under the Base configuration and once under Enhanced (the
// paper's two columns), with identical seeds and request interleaving,
// and caches the results so that e.g. Table 2, Table 3, Figure 4 and
// Figure 5 all reuse a single pair of simulations.
//
// Simulations execute through an internal/runner pool, so a Suite
// fans its Base/Enhanced pairs out across cores: artefacts that need
// every workload (Table 2, Speedups, ...) submit all eight jobs up
// front and the pool runs as many concurrently as it has workers.
// Results are bit-identical to the historical sequential path — the
// runner executes exactly the same generation/link/warmup/measure
// sequence per job (see TestRunnerDeterminism).
package experiments

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cpu"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/trace"
)

// WorkloadSpec binds a workload generator to its measurement budget.
// It aliases the runner's registry entry type.
type WorkloadSpec = runner.WorkloadSpec

// Workloads is the evaluation's workload set (§4.4), in the paper's
// presentation order — the paper subset of the runner's registry.  The
// library-churn workloads (plugin-server, jit) are runnable through the
// runner and dlsimd but are not part of any reproduced table or figure.
var Workloads = runner.PaperWorkloads()

// Suite runs the evaluation.
//
// Suite is safe for concurrent use: the lazy run cache is guarded by
// a mutex, and concurrent requests for the same workload pair are
// coalesced by the runner's singleflight cache so each simulation
// executes exactly once.
type Suite struct {
	// Seed drives workload generation, layout, and request
	// interleaving.  The same seed produces bit-identical results.
	Seed uint64

	// Scale multiplies measurement request counts: 1.0 is the default
	// budget; smaller values give quick smoke runs, larger values
	// smoother distributions.
	Scale float64

	mu   sync.Mutex
	runs map[string]*runData
	pool *runner.Runner
}

// NewSuite returns a Suite with the given seed and scale, executing
// on a private runner pool sized to the machine.
func NewSuite(seed uint64, scale float64) *Suite {
	return NewSuiteWithRunner(seed, scale, runner.New(runner.Options{}))
}

// NewSuiteWithRunner returns a Suite submitting its simulations to r,
// so several suites (or a suite and a dlsimd service) can share one
// pool and result cache.
func NewSuiteWithRunner(seed uint64, scale float64, r *runner.Runner) *Suite {
	if scale <= 0 {
		scale = 1
	}
	return &Suite{Seed: seed, Scale: scale, runs: make(map[string]*runData), pool: r}
}

// Runner returns the pool the suite submits simulations to.
func (s *Suite) Runner() *runner.Runner { return s.pool }

// runData is one workload's matched Base/Enhanced measurement pair.
type runData struct {
	spec WorkloadSpec

	baseSamp, enhSamp map[string]*stats.Sample // per request class, µs
	baseCnt, enhCnt   cpu.Counters
	baseTramps        trace.Summary // Base's lifetime trampoline stream
}

// pair returns the workload's Base/Enhanced job specs.
func (s *Suite) pair(name string) [2]runner.JobSpec {
	return runner.PairSpecs(name, s.Seed, s.Scale)
}

// run lazily executes the Base/Enhanced pair for a workload through
// the runner pool.  Both jobs are submitted before either is waited
// on, so a pair occupies two workers at once.
func (s *Suite) run(name string) (*runData, error) {
	s.mu.Lock()
	if rd, ok := s.runs[name]; ok {
		s.mu.Unlock()
		return rd, nil
	}
	s.mu.Unlock()

	if _, ok := runner.WorkloadByName(name); !ok {
		return nil, fmt.Errorf("experiments: unknown workload %q", name)
	}
	specs := s.pair(name)
	results, err := s.pool.RunAll(context.Background(), specs[:])
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", name, err)
	}
	base, enh := results[0], results[1]

	rd := &runData{
		spec:       s.specOf(name),
		baseSamp:   base.Samples,
		enhSamp:    enh.Samples,
		baseCnt:    base.Counters,
		enhCnt:     enh.Counters,
		baseTramps: base.Trampolines,
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if prior, ok := s.runs[name]; ok {
		// A concurrent caller got here first; the runner deduplicated
		// the simulations, so both runData views are identical — keep
		// the first for pointer stability.
		return prior, nil
	}
	s.runs[name] = rd
	return rd, nil
}

// specOf returns the registry entry for a known workload name.
func (s *Suite) specOf(name string) WorkloadSpec {
	ws, _ := runner.WorkloadByName(name)
	return ws
}

// all runs every workload pair, fanning the whole matrix out across
// the runner pool before collecting any result.
func (s *Suite) all() ([]*runData, error) {
	for _, spec := range runner.SuiteSpecs(s.Seed, s.Scale) {
		if _, _, err := s.pool.Submit(spec); err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
	}
	out := make([]*runData, 0, len(Workloads))
	for _, ws := range Workloads {
		rd, err := s.run(ws.Name)
		if err != nil {
			return nil, err
		}
		out = append(out, rd)
	}
	return out, nil
}

// merged returns one sample merging every request class.
func merged(samp map[string]*stats.Sample) *stats.Sample {
	out := &stats.Sample{}
	for _, s := range samp {
		out.AddAll(s.Values())
	}
	return out
}
