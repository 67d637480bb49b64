package main

import (
	"math/rand/v2"

	"repro/internal/runner"
)

// Every input a run sends is a pure function of -seed, a workload and
// an op index.  The ops of each workload come in rounds: a round is the
// smallest list that covers the workload's whole mix once, and a timed
// phase stops only at a round boundary, so every run measures the same
// mix whatever its length.

// Workload tags select disjoint job-seed ranges (see jobSeed).
const (
	tagColdExact = iota + 1
	tagColdSmall
	tagHotFill
	tagSampled
)

// goldenSeed and goldenScale are the specs of
// internal/experiments/testdata/golden_counters.json.
const (
	goldenSeed  = 7
	goldenScale = 0.25
)

// jobSeed returns the simulation seed of the n-th fresh job of the
// workload with the given tag.  The tag fills the top byte, so two
// workloads never share a job key and no job uses the golden seed; the
// low bits count up from a hash of the run seed, so a run's seeds are
// distinct.
func jobSeed(seed uint64, tag int, n int) uint64 {
	const low = 1<<56 - 1
	return uint64(tag)<<56 | (splitmix64(seed)+uint64(n))&low
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// coldExactRound is one fresh seed run on every app under Base and
// Enhanced at the golden scale, each pair back to back.
func coldExactRound(seed uint64, r int) []runner.JobSpec {
	s := jobSeed(seed, tagColdExact, r)
	var out []runner.JobSpec
	for _, app := range runner.WorkloadNames() {
		p := runner.PairSpecs(app, s, goldenScale)
		out = append(out, p[0], p[1])
	}
	return out
}

// smallJob is the cold-small op shape: one warmup request and the
// minimum measured window, so generate, link and compile dominate.
func smallJob(app string, cfg runner.ConfigKind, seed uint64) runner.JobSpec {
	return runner.JobSpec{Workload: app, Config: cfg, Seed: seed, Warm: 1, Measure: runner.MinMeasure}
}

// runs reports whether the service can run app under cfg.  The churn
// apps unload libraries and rebind GOT entries at run time: a static
// image has no GOT, and plugin-server's unloads cannot tombstone a
// patched image's direct calls, so the service fails those jobs by
// design.
func runs(app string, cfg runner.ConfigKind) bool {
	switch {
	case cfg == runner.Static:
		return app != "plugin-server" && app != "jit"
	case cfg == runner.Patched:
		return app != "plugin-server"
	}
	return true
}

// coldSmallCells is every (config, app) cell the service can run, in
// config-major order.
var coldSmallCells = func() []runner.JobSpec {
	var out []runner.JobSpec
	for _, cfg := range runner.ConfigKinds() {
		for _, app := range runner.WorkloadNames() {
			if runs(app, cfg) {
				out = append(out, runner.JobSpec{Workload: app, Config: cfg})
			}
		}
	}
	return out
}()

// coldSmallRound is every cell once, each with its own fresh seed, so
// every job generates and links from scratch.
func coldSmallRound(seed uint64, r int) []runner.JobSpec {
	n := len(coldSmallCells)
	out := make([]runner.JobSpec, n)
	for i, c := range coldSmallCells {
		out[i] = smallJob(c.Workload, c.Config, jobSeed(seed, tagColdSmall, r*n+i))
	}
	return out
}

// hotFill is the working set of hot-reads: w cold-small-style jobs.
// Consecutive jobs share an (app, seed) under every config it runs
// under, as a sweep would, so the fill reuses generated workloads.
func hotFill(seed uint64, w int) []runner.JobSpec {
	apps := runner.WorkloadNames()
	out := make([]runner.JobSpec, 0, w)
	for g := 0; len(out) < w; g++ {
		app := apps[g%len(apps)]
		for _, cfg := range runner.ConfigKinds() {
			if runs(app, cfg) && len(out) < w {
				out = append(out, smallJob(app, cfg, jobSeed(seed, tagHotFill, g)))
			}
		}
	}
	return out
}

// hotOp is one hot-reads request against fill job idx.
type hotOp struct {
	kind string // "submit" (resubmit, answered from the cache), "read" or "timeline"
	idx  int
}

// hotRoundLen is the number of requests in a hot-reads round.
const hotRoundLen = 1000

// hotOpAt draws request i of hot-reads: 30% resubmits, 50% job reads
// and 20% timeline reads, each of a fill job drawn Zipf(1.1) over w.
func hotOpAt(seed uint64, i, w int) hotOp {
	rng := rand.New(rand.NewPCG(splitmix64(seed), uint64(i)))
	z := rand.NewZipf(rng, 1.1, 1, uint64(w-1))
	kind := "read"
	switch u := rng.Float64(); {
	case u < 0.3:
		kind = "submit"
	case u >= 0.8:
		kind = "timeline"
	}
	return hotOp{kind: kind, idx: int(z.Uint64())}
}

// sampledBatchRound is one batch per app, each a fresh seed under Base
// and Enhanced with sampled simulation at half scale, which still
// fast-forwards at least 80% of every job's measured requests.
func sampledBatchRound(seed uint64, r int) []runner.SweepSpec {
	apps := runner.WorkloadNames()
	out := make([]runner.SweepSpec, len(apps))
	for i, app := range apps {
		out[i] = runner.SweepSpec{
			Workload:      app,
			Configs:       []runner.ConfigKind{runner.Base, runner.Enhanced},
			Seeds:         []uint64{jobSeed(seed, tagSampled, r*len(apps)+i)},
			Scale:         0.5,
			Warm:          10,
			SampleWindows: sampleWindows,
		}
	}
	return out
}

// sampleWindows is the window count of every sampled-batch job.
const sampleWindows = 4
