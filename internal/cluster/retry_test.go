package cluster

import (
	"math/rand/v2"
	"testing"
	"time"
)

// TestBackoffNeverExceedsMaxDelay pins the clamp-after-jitter fix:
// MaxDelay is a hard cap, so upward jitter on a capped delay must not
// push past it, while downward jitter still shortens it.
func TestBackoffNeverExceedsMaxDelay(t *testing.T) {
	cases := []struct {
		name   string
		policy RetryPolicy
		// wantVaried marks policies whose deep-retry jitter floor sits
		// below the cap, so capped delays must still vary downward.
		// (The forwarding defaults' un-jittered deep delays overshoot
		// the cap so far that even maximal downward jitter stays above
		// it — every deep backoff clamps to exactly MaxDelay.)
		wantVaried bool
	}{
		// The zero policy resolves to the forwarding defaults.
		{"cluster default", RetryPolicy{}, false},
		{"wide jitter", RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond, Jitter: 0.9}, true},
		{"base at cap", RetryPolicy{BaseDelay: 50 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Jitter: 0.5}, true},
		{"no jitter", RetryPolicy{BaseDelay: 5 * time.Millisecond, MaxDelay: 40 * time.Millisecond, Jitter: -1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.policy.normalized()
			rng := rand.New(rand.NewPCG(1, 2))
			sawBelowCap := false
			for retry := 1; retry <= 12; retry++ {
				for sample := 0; sample < 200; sample++ {
					d := p.Backoff(retry, rng.Float64())
					if d > p.MaxDelay {
						t.Fatalf("retry %d: backoff %v exceeds MaxDelay %v", retry, d, p.MaxDelay)
					}
					if d <= 0 {
						t.Fatalf("retry %d: non-positive backoff %v", retry, d)
					}
					if retry >= 10 && d < p.MaxDelay {
						sawBelowCap = true
					}
				}
			}
			if tc.wantVaried && !sawBelowCap {
				t.Error("jitter never shortened a capped delay — is it still applied before the clamp?")
			}
		})
	}
}
