package cluster

import "time"

// RetryPolicy governs per-peer retransmission of failed forwards
// before the walk fails over to the next replica.  Zero fields select
// the forwarding defaults (defaultRetry).  To disable retries set
// MaxAttempts to 1 (or any negative value).
type RetryPolicy struct {
	// MaxAttempts is the total number of forward attempts per peer,
	// including the first.  Zero selects the default; one or a
	// negative value disables retries.
	MaxAttempts int

	// BaseDelay is the backoff before the first retry; each further
	// retry doubles it.  Zero selects the default.
	BaseDelay time.Duration

	// MaxDelay caps the exponential growth.  Zero selects the
	// default.
	MaxDelay time.Duration

	// Jitter is the fraction of each backoff randomised uniformly in
	// [1-Jitter, 1+Jitter], decorrelating retry storms.  Zero selects
	// the default; a negative value disables jitter.
	Jitter float64
}

// defaultRetry holds the forwarding defaults for RetryPolicy's zero
// fields: 2 attempts, 10ms base, 200ms cap, 20% jitter.
var defaultRetry = RetryPolicy{
	MaxAttempts: 2,
	BaseDelay:   10 * time.Millisecond,
	MaxDelay:    200 * time.Millisecond,
	Jitter:      0.2,
}

// normalized resolves zero fields to defaultRetry's values.
func (p RetryPolicy) normalized() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = defaultRetry.MaxAttempts
	}
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = defaultRetry.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = defaultRetry.MaxDelay
	}
	if p.Jitter == 0 {
		p.Jitter = defaultRetry.Jitter
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	return p
}

// Backoff returns the delay before retry number `retry` (1-based):
// BaseDelay·2^(retry-1) with ±Jitter applied from u, a uniform draw
// in [0, 1), never exceeding MaxDelay.  MaxDelay is a hard cap: jitter
// is applied before the final clamp, so upward jitter can never push a
// capped delay past it (it remains a *jittered* cap from below, since
// downward jitter still shortens capped delays).
func (p RetryPolicy) Backoff(retry int, u float64) time.Duration {
	d := p.BaseDelay
	for i := 1; i < retry && d < p.MaxDelay; i++ {
		d *= 2
	}
	if p.Jitter > 0 {
		d = time.Duration(float64(d) * (1 - p.Jitter + 2*p.Jitter*u))
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	return d
}
