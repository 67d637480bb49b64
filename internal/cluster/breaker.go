package cluster

import (
	"sync"
	"time"
)

// breakerState names the circuit breaker's three states for status
// reporting and the dlsim_cluster_breaker_state gauge (0 closed,
// 1 half-open, 2 open).
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerHalfOpen
	breakerOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is a per-peer circuit breaker over the forwarding path.
// Closed, every forward is allowed.  After `threshold` consecutive
// failures it opens: forwards to the peer are skipped (the ring walk
// falls through to the next replica) until `cooldown` elapses, at
// which point exactly one trial request is let through (half-open).
// The trial's success closes the breaker; its failure re-opens it for
// another cooldown.  The breaker sees only forward outcomes — the
// background health prober is a separate, probe-driven view — so a
// peer that answers /healthz but fails real requests still trips it.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	fails    int       // consecutive failures while closed
	openedAt time.Time // zero while closed
	trial    bool      // a half-open trial is in flight
	now      func() time.Time
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// allow reports whether a forward may proceed.  In half-open it
// admits a single trial; concurrent callers are rejected until the
// trial resolves via success or failure.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.openedAt.IsZero() {
		return true
	}
	if b.now().Sub(b.openedAt) < b.cooldown || b.trial {
		return false
	}
	b.trial = true
	return true
}

// release hands back a half-open trial whose forward the caller
// abandoned before the peer answered: the peer was not judged, so the
// next forward may try it (allow refuses while a trial is in flight).
// Like a pre-open forward that resolves late, it cannot tell a trial
// it claimed from a later one.
func (b *breaker) release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.trial = false
}

// success records a successful forward: any state resets to closed.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	b.openedAt = time.Time{}
	b.trial = false
}

// failure records a failed forward, opening the breaker at the
// threshold and re-arming the cooldown when a half-open trial fails.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.openedAt.IsZero() {
		// Half-open trial failed (or a pre-open forward completed
		// late); re-arm the full cooldown.
		b.openedAt = b.now()
		b.trial = false
		return
	}
	b.fails++
	if b.fails >= b.threshold {
		b.openedAt = b.now()
	}
}

// state reports the breaker's current state for /readyz and metrics.
func (b *breaker) state() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.openedAt.IsZero():
		return breakerClosed
	case b.now().Sub(b.openedAt) >= b.cooldown:
		return breakerHalfOpen
	default:
		return breakerOpen
	}
}
