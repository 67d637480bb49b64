// Package faultinject is a deterministic fault-injection framework
// for robustness testing.
//
// Code under test declares named *injection points* on its hot paths
// by calling Fire (or FireCtx where a context is available).  When the
// framework is disabled — the default — a point is a single atomic
// load, so shipping the points compiled-in is effectively free (see
// BenchmarkFireDisabled).  When a point is armed, Fire rolls a seeded
// RNG against the point's probability and, on a hit, injects the
// configured fault:
//
//	Error — return an *InjectedError, which the caller handles like
//	        any failure of that path (a job fails; a submission
//	        answers 500)
//	Panic — panic with a recognisable message (exercises worker
//	        panic isolation)
//	Delay — sleep for the configured duration, then proceed
//	Hang  — block until the context is cancelled or the registry is
//	        reset (exercises timeouts and drain deadlines)
//
// Points are armed either from test code (Enable/Disable/Reset) or
// from the environment, which is how `make faults` runs the whole
// test suite under low-probability injection:
//
//	DLSIM_FAULTS="runner.execute=delay:0.02:2ms,dlsimd.submit=delay:0.2:2ms"
//	DLSIM_FAULT_SEED=42
//
// The spec grammar is point=mode:prob[:delay], comma-separated.  All
// randomness comes from one seeded PCG stream, so a given seed
// reproduces the same injection schedule for the same sequence of
// Fire calls.  Per-point hit and injection counters let tests assert
// exactly how many faults were delivered.
package faultinject

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Mode selects what an armed point injects.
type Mode string

// Injection modes.
const (
	Error Mode = "error"
	Panic Mode = "panic"
	Delay Mode = "delay"
	Hang  Mode = "hang"
)

// InjectedError is the error returned by a point armed in Error mode.
type InjectedError struct {
	// Point is the injection-point name that produced the error.
	Point string
}

func (e *InjectedError) Error() string {
	return "faultinject: injected error at " + e.Point
}

// PointConfig arms one injection point.
type PointConfig struct {
	// Mode is the fault to inject on a probability hit.
	Mode Mode

	// Prob is the per-Fire injection probability in [0, 1].
	Prob float64

	// Delay is the sleep duration for Delay mode (ignored otherwise).
	Delay time.Duration

	// Count, when positive, caps the number of injections this point
	// delivers; after Count injections the point passes through.
	// Zero means unlimited.
	Count int
}

// point is one armed injection point plus its counters.
type point struct {
	cfg      PointConfig
	hits     uint64 // Fire evaluations while armed
	injected uint64 // faults actually delivered
}

// registry holds the armed points.  A process has one (the package
// globals); tests drive it through the package-level functions.
type registry struct {
	// enabled is the fast-path gate: 0 means no point is armed and
	// Fire returns immediately.
	enabled atomic.Bool

	mu     sync.Mutex
	rng    *rand.Rand
	points map[string]*point
	// unhang releases Hang-mode blocks on Reset.
	unhang chan struct{}
}

var reg = newRegistry()

func newRegistry() *registry {
	r := &registry{
		points: make(map[string]*point),
		unhang: make(chan struct{}),
	}
	r.reseed(1)
	return r
}

func (r *registry) reseed(seed uint64) {
	r.rng = rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

func init() { armFromEnv() }

// armFromEnv applies DLSIM_FAULTS / DLSIM_FAULT_SEED, if set.
func armFromEnv() {
	seed := uint64(1)
	if s := os.Getenv("DLSIM_FAULT_SEED"); s != "" {
		if v, err := strconv.ParseUint(s, 10, 64); err == nil {
			seed = v
		}
	}
	spec := os.Getenv("DLSIM_FAULTS")
	if spec == "" {
		return
	}
	cfgs, err := ParseSpec(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "faultinject: ignoring DLSIM_FAULTS: %v\n", err)
		return
	}
	Seed(seed)
	for name, cfg := range cfgs {
		Enable(name, cfg)
	}
}

// ParseSpec parses the DLSIM_FAULTS grammar:
// "point=mode:prob[:delay]" entries separated by commas, e.g.
// "runner.execute=delay:0.02:2ms,dlsimd.submit=error:0.05".
func ParseSpec(spec string) (map[string]PointConfig, error) {
	out := make(map[string]PointConfig)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, rest, ok := strings.Cut(entry, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad entry %q (want point=mode:prob[:delay])", entry)
		}
		parts := strings.Split(rest, ":")
		if len(parts) < 2 {
			return nil, fmt.Errorf("bad entry %q (want point=mode:prob[:delay])", entry)
		}
		mode := Mode(parts[0])
		switch mode {
		case Error, Panic, Delay, Hang:
		default:
			return nil, fmt.Errorf("unknown mode %q in %q", parts[0], entry)
		}
		prob, err := strconv.ParseFloat(parts[1], 64)
		if err != nil || prob < 0 || prob > 1 {
			return nil, fmt.Errorf("bad probability %q in %q", parts[1], entry)
		}
		cfg := PointConfig{Mode: mode, Prob: prob}
		if len(parts) >= 3 {
			d, err := time.ParseDuration(parts[2])
			if err != nil {
				return nil, fmt.Errorf("bad delay %q in %q", parts[2], entry)
			}
			cfg.Delay = d
		}
		out[name] = cfg
	}
	return out, nil
}

// Seed reseeds the shared injection RNG, making the subsequent
// injection schedule deterministic for a fixed sequence of Fire calls.
func Seed(seed uint64) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	reg.reseed(seed)
}

// Enable arms (or re-arms) the named point, replacing any prior
// configuration and zeroing its counters.
func Enable(name string, cfg PointConfig) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	reg.points[name] = &point{cfg: cfg}
	reg.enabled.Store(true)
}

// Disable disarms the named point.
func Disable(name string) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	delete(reg.points, name)
	reg.enabled.Store(len(reg.points) > 0)
}

// Reset disarms every point, releases any Hang-mode blocks, and
// re-applies the environment configuration (so tests that Reset in
// cleanup leave `make faults` env injection in force for later tests).
func Reset() {
	reg.mu.Lock()
	reg.points = make(map[string]*point)
	reg.enabled.Store(false)
	close(reg.unhang)
	reg.unhang = make(chan struct{})
	reg.mu.Unlock()
	armFromEnv()
}

// Hits returns how many times the named point was evaluated while
// armed.
func Hits(name string) uint64 {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if p, ok := reg.points[name]; ok {
		return p.hits
	}
	return 0
}

// Injections returns how many faults the named point delivered.
func Injections(name string) uint64 {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if p, ok := reg.points[name]; ok {
		return p.injected
	}
	return 0
}

// Enabled reports whether any point is armed.
func Enabled() bool { return reg.enabled.Load() }

// Fire evaluates the named injection point with no cancellation
// context; Hang-mode points block until Reset.  Use FireCtx on paths
// that hold a context.
func Fire(name string) error { return FireCtx(context.Background(), name) }

// FireCtx evaluates the named injection point.  Disabled (the
// default), it costs one atomic load.  Armed, it may return an
// *InjectedError, panic, sleep, or block until ctx is done — per the
// point's PointConfig.
func FireCtx(ctx context.Context, name string) error {
	if !reg.enabled.Load() {
		return nil
	}
	reg.mu.Lock()
	p, ok := reg.points[name]
	if !ok {
		reg.mu.Unlock()
		return nil
	}
	p.hits++
	if p.cfg.Count > 0 && p.injected >= uint64(p.cfg.Count) {
		reg.mu.Unlock()
		return nil
	}
	if p.cfg.Prob < 1 && reg.rng.Float64() >= p.cfg.Prob {
		reg.mu.Unlock()
		return nil
	}
	p.injected++
	cfg := p.cfg
	unhang := reg.unhang
	reg.mu.Unlock()

	switch cfg.Mode {
	case Error:
		return &InjectedError{Point: name}
	case Panic:
		panic(fmt.Sprintf("faultinject: injected panic at %s", name))
	case Delay:
		select {
		case <-time.After(cfg.Delay):
		case <-ctx.Done():
			return ctx.Err()
		}
		return nil
	case Hang:
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-unhang:
			return nil
		}
	}
	return nil
}
