package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/leakcheck"
	"repro/internal/runner"
	"repro/internal/telemetry"
)

// idOwnedBy finds an ID the ring assigns to the wanted member —
// content-derived IDs hash uniformly, so a handful of tries suffice.
func idOwnedBy(t *testing.T, r *ring, member string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		id := fmt.Sprintf("job-%d", i)
		if r.owner(id) == member {
			return id
		}
	}
	t.Fatalf("no ID owned by %s in 10000 tries", member)
	return ""
}

// idRoutedVia finds an ID whose failover sequence starts
// [first, second, ...] — tests that exercise failover need the next
// replica after the owner to be a specific member, and the ring
// decides that per ID.
func idRoutedVia(t *testing.T, r *ring, first, second string) string {
	t.Helper()
	for i := 0; i < 20000; i++ {
		id := fmt.Sprintf("job-%d", i)
		if seq := r.sequence(id); seq[0] == first && seq[1] == second {
			return id
		}
	}
	t.Fatalf("no ID routed %s then %s in 20000 tries", first, second)
	return ""
}

func TestRingDeterministicAndBalanced(t *testing.T) {
	members := []string{"a", "b", "c"}
	r1 := newRing(members, 64)
	r2 := newRing([]string{"c", "a", "b"}, 64) // order must not matter

	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		id := fmt.Sprintf("id-%d", i)
		o := r1.owner(id)
		if o2 := r2.owner(id); o2 != o {
			t.Fatalf("rings disagree on %s: %s vs %s", id, o, o2)
		}
		counts[o]++
	}
	for _, m := range members {
		if counts[m] < 300 {
			t.Errorf("member %s owns only %d/3000 ids — ring badly skewed: %v", m, counts[m], counts)
		}
	}

	seq := r1.sequence("id-42")
	if len(seq) != 3 || seq[0] != r1.owner("id-42") {
		t.Errorf("sequence = %v, want all 3 members starting at owner %s", seq, r1.owner("id-42"))
	}
	seen := map[string]bool{}
	for _, m := range seq {
		if seen[m] {
			t.Errorf("sequence repeats %s: %v", m, seq)
		}
		seen[m] = true
	}
}

// TestRingRemappingIsMinimal pins the consistent-hashing property:
// removing one of three members remaps only that member's keys.
func TestRingRemappingIsMinimal(t *testing.T) {
	full := newRing([]string{"a", "b", "c"}, 64)
	reduced := newRing([]string{"a", "b"}, 64)
	for i := 0; i < 2000; i++ {
		id := fmt.Sprintf("id-%d", i)
		before := full.owner(id)
		if before == "c" {
			continue
		}
		if after := reduced.owner(id); after != before {
			t.Fatalf("id %s moved %s -> %s though its owner did not leave", id, before, after)
		}
	}
}

func TestBreakerTransitions(t *testing.T) {
	b := newBreaker(3, time.Minute)
	now := time.Unix(1000, 0)
	b.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if !b.allow() {
			t.Fatalf("closed breaker refused forward %d", i)
		}
		b.failure()
	}
	if b.state() != breakerClosed {
		t.Fatalf("state after 2 failures = %v, want closed", b.state())
	}
	b.failure() // third consecutive: opens
	if b.state() != breakerOpen {
		t.Fatalf("state after threshold = %v, want open", b.state())
	}
	if b.allow() {
		t.Fatal("open breaker allowed a forward before cooldown")
	}

	now = now.Add(time.Minute) // cooldown elapsed: half-open
	if b.state() != breakerHalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", b.state())
	}
	if !b.allow() {
		t.Fatal("half-open breaker refused the trial")
	}
	if b.allow() {
		t.Fatal("half-open breaker admitted a second concurrent trial")
	}
	b.failure() // trial failed: re-open, cooldown re-armed
	if b.state() != breakerOpen || b.allow() {
		t.Fatal("failed trial did not re-open the breaker")
	}

	now = now.Add(time.Minute)
	if !b.allow() {
		t.Fatal("re-armed breaker refused the next trial")
	}
	b.success()
	if b.state() != breakerClosed || !b.allow() {
		t.Fatal("successful trial did not close the breaker")
	}
}

// testCluster builds a 3-member cluster ("self", "b", "c") with b and
// c backed by the given handlers, a paused prober (huge interval) and
// fast retries.
func testCluster(t *testing.T, hb, hc http.Handler, mut func(*Options)) (*Cluster, *telemetry.Registry) {
	t.Helper()
	tsB := httptest.NewServer(hb)
	tsC := httptest.NewServer(hc)
	t.Cleanup(tsB.Close)
	t.Cleanup(tsC.Close)
	reg := telemetry.NewRegistry()
	opts := Options{
		Self: "self",
		Peers: []Peer{
			{Name: "self"},
			{Name: "b", URL: tsB.URL},
			{Name: "c", URL: tsC.URL},
		},
		ProbeInterval:    time.Hour, // prober stays quiet unless a test wants it
		BreakerThreshold: 3,
		BreakerCooldown:  50 * time.Millisecond,
		ForwardTimeout:   2 * time.Second,
		Retry:            runner.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond},
		Metrics:          reg,
	}
	if mut != nil {
		mut(&opts)
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, reg
}

// route drives one Route call and returns the recorder plus outcome.
func route(c *Cluster, req Request) (*httptest.ResponseRecorder, Outcome) {
	w := httptest.NewRecorder()
	r := httptest.NewRequest(req.Method, "http://client"+req.Path, nil)
	r.Header.Set(RequestIDHeader, "req-test")
	return w, c.Route(w, r, req)
}

func TestRouteForwardsToOwnerAndRelays(t *testing.T) {
	leakcheck.Check(t)
	okBody := []byte(`{"state":"done"}`)
	handler := func(node string) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Header.Get(ForwardedByHeader) != "self" {
				t.Errorf("forwarded request missing %s", ForwardedByHeader)
			}
			if r.Header.Get(RequestIDHeader) != "req-test" {
				t.Errorf("request ID not threaded, got %q", r.Header.Get(RequestIDHeader))
			}
			w.Header().Set(NodeHeader, node)
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(okBody)
		})
	}
	c, _ := testCluster(t, handler("b"), handler("c"), nil)

	// ID owned by self: no forwarding, caller serves.
	selfID := idOwnedBy(t, c.ring, "self")
	if _, out := route(c, Request{ID: selfID, Method: "GET", Path: "/v1/jobs/" + selfID}); out.Handled || out.FailedOver {
		t.Fatalf("self-owned ID was forwarded: %+v", out)
	}

	// ID owned by b: forwarded and relayed.
	bID := idOwnedBy(t, c.ring, "b")
	w, out := route(c, Request{ID: bID, Method: "GET", Path: "/v1/jobs/" + bID})
	if !out.Handled || out.Peer != "b" || out.FailedOver {
		t.Fatalf("outcome = %+v, want handled by b", out)
	}
	if w.Code != 200 || w.Body.String() != string(okBody) {
		t.Errorf("relayed %d %q", w.Code, w.Body.String())
	}
	if w.Header().Get(NodeHeader) != "b" {
		t.Errorf("%s = %q, want b", NodeHeader, w.Header().Get(NodeHeader))
	}
	if w.Header().Get(FailoverHeader) != "" {
		t.Error("clean forward carries the failover marker")
	}
}

func TestRouteFailsOverPastFailingOwner(t *testing.T) {
	leakcheck.Check(t)
	bad := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	good := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(NodeHeader, "c")
		_, _ = w.Write([]byte("ok"))
	})
	c, _ := testCluster(t, bad, good, nil)

	bID := idRoutedVia(t, c.ring, "b", "c")
	w, out := route(c, Request{ID: bID, Method: "GET", Path: "/v1/jobs/" + bID})
	if !out.Handled || !out.FailedOver || out.Peer != "c" {
		t.Fatalf("outcome = %+v, want handled by c with failover", out)
	}
	if w.Code != 200 || w.Body.String() != "ok" {
		t.Errorf("failover response %d %q, want 200 ok from c", w.Code, w.Body.String())
	}
	if w.Header().Get(FailoverHeader) != "1" {
		t.Error("failover response not marked")
	}
	if c.Failovers() == 0 {
		t.Error("failover counter did not move")
	}
	// A 5xx peer is never relayed: the owner answered 500 twice
	// (retry), both recorded as errors.
	if got := c.forwards.With("b", "error").Value(); got != 2 {
		t.Errorf("owner error forwards = %d, want 2 (retry then failover)", got)
	}
}

func TestBreakerOpensAndSkipsWithoutNetwork(t *testing.T) {
	leakcheck.Check(t)
	var hits atomic.Int64
	bad := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	good := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("ok"))
	})
	c, _ := testCluster(t, bad, good, func(o *Options) {
		o.BreakerThreshold = 2
		o.BreakerCooldown = time.Hour
		o.Retry = runner.RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond}
	})

	bID := idRoutedVia(t, c.ring, "b", "c")
	// Two routes = two failures = breaker opens.
	route(c, Request{ID: bID, Method: "GET", Path: "/x"})
	route(c, Request{ID: bID, Method: "GET", Path: "/x"})
	if got := c.peers["b"].br.state(); got != breakerOpen {
		t.Fatalf("breaker state after failures = %v, want open", got)
	}
	before := hits.Load()
	w, out := route(c, Request{ID: bID, Method: "GET", Path: "/x"})
	if !out.Handled || !out.FailedOver || w.Code != 200 {
		t.Fatalf("route with open breaker: %+v code=%d", out, w.Code)
	}
	if hits.Load() != before {
		t.Errorf("open breaker still let %d request(s) through", hits.Load()-before)
	}
	if st := c.Status(); !st.Degraded {
		t.Error("cluster with an open breaker reports itself healthy")
	}
}

// TestFailoverMissKeepsWalking pins the intermediate-replica story:
// with the owner down, a non-owner's "I don't hold this ID" is never
// relayed, whether it is dlsimd's retryable miss (503 + MissHeader) or
// a bare 404/410 from a peer that does not stamp the marker.  The
// walk continues and falls through to self, so the caller — not the
// non-owner — decides what a miss means.  A miss is final for that
// peer (no retry) and not a fault (its breaker stays closed).
func TestFailoverMissKeepsWalking(t *testing.T) {
	cases := []struct {
		name   string
		status int
		marked bool
	}{
		{"unmarked-404", http.StatusNotFound, false},
		{"unmarked-410", http.StatusGone, false},
		{"marked-503", http.StatusServiceUnavailable, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			leakcheck.Check(t)
			dead := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				http.Error(w, "boom", http.StatusInternalServerError)
			})
			var asked atomic.Int64
			missing := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				asked.Add(1)
				if r.Header.Get(FailoverHeader) != "1" {
					t.Error("failover hop to non-owner not marked on the wire")
				}
				if tc.marked {
					w.Header().Set(MissHeader, "1")
				}
				http.Error(w, "no such job", tc.status)
			})
			// Threshold 1: a miss booked as a failure would open c's
			// breaker at once.
			c, _ := testCluster(t, dead, missing, func(o *Options) { o.BreakerThreshold = 1 })

			bID := idRoutedVia(t, c.ring, "b", "c")
			w, out := route(c, Request{ID: bID, Method: "GET", Path: "/v1/jobs/" + bID})
			if out.Handled || !out.FailedOver {
				t.Fatalf("outcome = %+v, want unhandled fall-through to self with failover", out)
			}
			if w.Code == tc.status || w.Body.Len() != 0 {
				t.Fatalf("non-owner's %d was relayed to the client (%d %q)", tc.status, w.Code, w.Body.String())
			}
			if w.Header().Get(FailoverHeader) != "1" {
				t.Error("local fall-through after failover not marked")
			}
			if got := c.forwards.With("c", "miss").Value(); got != 1 {
				t.Errorf("miss forwards to c = %d, want 1", got)
			}
			if got := asked.Load(); got != 1 {
				t.Errorf("c was asked %d times, want 1 (no retries on a miss)", got)
			}
			if st := c.peers["c"].br.state(); st != breakerClosed {
				t.Errorf("missing peer's breaker = %v, want closed (a miss is not a fault)", st)
			}
		})
	}
}

// TestCallerEndedForwardChargesNoPeer pins that a forward the caller's
// own context ends (client gone, request timeout) is not the peer's
// failure: routes whose deadline expires while a healthy owner is
// still working leave every breaker closed, count no error forward and
// no failover, and stop the walk instead of charging the remaining
// replicas.  The outcome still reports the owner as bypassed, so a
// local miss answers the retryable 503 with the failover marker.  A
// half-open trial that such a route claimed is handed back: the next
// route gets the trial, and the recovered owner answers it.
func TestCallerEndedForwardChargesNoPeer(t *testing.T) {
	leakcheck.Check(t)
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(300 * time.Millisecond):
			_, _ = w.Write([]byte("ok"))
		case <-r.Context().Done():
		}
	})
	c, _ := testCluster(t, slow, slow, nil)
	bID := idRoutedVia(t, c.ring, "b", "c")
	routeWithin := func(d time.Duration) (*httptest.ResponseRecorder, Outcome) {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		defer cancel()
		w := httptest.NewRecorder()
		r := httptest.NewRequest("GET", "http://client/x", nil).WithContext(ctx)
		return w, c.Route(w, r, Request{ID: bID, Method: "GET", Path: "/x"})
	}

	for i := 0; i < 3; i++ {
		w, out := routeWithin(20 * time.Millisecond)
		if out.Handled || !out.FailedOver {
			t.Fatalf("route %d outcome = %+v, want unhandled with the owner bypassed", i, out)
		}
		if w.Header().Get(FailoverHeader) != "1" {
			t.Fatalf("route %d: abandoned walk not marked with %s", i, FailoverHeader)
		}
	}
	for _, name := range []string{"b", "c"} {
		if st := c.peers[name].br.state(); st != breakerClosed {
			t.Errorf("peer %s breaker = %v after caller-ended forwards, want closed", name, st)
		}
		if got := c.forwards.With(name, "error").Value(); got != 0 {
			t.Errorf("peer %s error forwards = %d, want 0", name, got)
		}
	}
	if got := c.Failovers(); got != 0 {
		t.Errorf("failovers = %d, want 0", got)
	}

	// Open b's breaker and let its cooldown pass: the next forward is
	// the half-open trial.
	br := c.peers["b"].br
	now := time.Now()
	br.now = func() time.Time { return now }
	for i := 0; i < 3; i++ {
		br.failure()
	}
	now = now.Add(time.Hour)
	if st := br.state(); st != breakerHalfOpen {
		t.Fatalf("b breaker = %v, want half-open", st)
	}
	if _, out := routeWithin(20 * time.Millisecond); out.Handled {
		t.Fatalf("trial route outcome = %+v, want abandoned", out)
	}
	w, out := routeWithin(5 * time.Second)
	if !out.Handled || out.Peer != "b" || w.Body.String() != "ok" {
		t.Fatalf("route after an abandoned trial = %+v body %q, want b's answer to a fresh trial", out, w.Body.String())
	}
	if st := br.state(); st != breakerClosed {
		t.Errorf("b breaker = %v after a successful trial, want closed", st)
	}
}

// TestOversizePeerBodyFailsOver pins the relay cap: a peer body past
// maxRelayBody must fail the forward (and fail over) rather than be
// truncated and relayed as a clean 200.
func TestOversizePeerBodyFailsOver(t *testing.T) {
	leakcheck.Check(t)
	huge := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(bytes.Repeat([]byte("x"), maxRelayBody+1))
	})
	good := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("ok"))
	})
	c, _ := testCluster(t, huge, good, func(o *Options) {
		o.Retry = runner.RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond}
	})

	bID := idRoutedVia(t, c.ring, "b", "c")
	w, out := route(c, Request{ID: bID, Method: "GET", Path: "/x"})
	if !out.Handled || !out.FailedOver || out.Peer != "c" {
		t.Fatalf("outcome = %+v, want failover to c past the oversize body", out)
	}
	if w.Code != 200 || w.Body.String() != "ok" {
		t.Errorf("relayed %d with %d-byte body, want c's 200 ok", w.Code, w.Body.Len())
	}
}

func TestProberMarksDeadPeerDownAndRecovers(t *testing.T) {
	leakcheck.Check(t)
	var down atomic.Bool
	flaky := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "dead", http.StatusServiceUnavailable)
			return
		}
		_, _ = w.Write([]byte("ok"))
	})
	good := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("ok"))
	})
	c, _ := testCluster(t, flaky, good, func(o *Options) {
		o.ProbeInterval = 10 * time.Millisecond
		o.ProbeTimeout = 100 * time.Millisecond
		o.FailThreshold = 2
	})

	waitHealthy := func(want bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for c.peers["b"].healthy() != want {
			if time.Now().After(deadline) {
				t.Fatalf("peer b never became healthy=%v", want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitHealthy(true)
	down.Store(true)
	waitHealthy(false)
	if st := c.Status(); !st.Degraded {
		t.Error("down peer did not degrade the cluster status")
	}
	// Routing an ID owned by the down peer skips it without a dial.
	bID := idRoutedVia(t, c.ring, "b", "c")
	w, out := route(c, Request{ID: bID, Method: "GET", Path: "/x"})
	if !out.Handled || !out.FailedOver || w.Code != 200 {
		t.Fatalf("route past down peer: %+v code=%d", out, w.Code)
	}
	down.Store(false)
	waitHealthy(true)
}

func TestFaultPointRetriesAndRecovers(t *testing.T) {
	leakcheck.Check(t)
	defer faultinject.Reset()
	good := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("ok"))
	})
	c, _ := testCluster(t, good, good, nil)

	// Exactly one injected transport fault: the first attempt fails,
	// the in-peer retry succeeds — no failover needed.
	faultinject.Enable("cluster.forward", faultinject.PointConfig{Mode: faultinject.Error, Prob: 1, Count: 1})
	bID := idOwnedBy(t, c.ring, "b")
	w, out := route(c, Request{ID: bID, Method: "GET", Path: "/x"})
	if !out.Handled || out.FailedOver || w.Code != 200 {
		t.Fatalf("route under single fault: %+v code=%d", out, w.Code)
	}
	if got := c.forwards.With("b", "error").Value(); got != 1 {
		t.Errorf("error forwards = %d, want 1 (the injected fault)", got)
	}
	if got := c.forwards.With("b", "ok").Value(); got != 1 {
		t.Errorf("ok forwards = %d, want 1 (the retry)", got)
	}
}

func TestNewValidation(t *testing.T) {
	base := []Peer{{Name: "a"}, {Name: "b", URL: "http://x"}}
	cases := []Options{
		{Peers: base},                           // no self
		{Self: "z", Peers: base},                // self not a member
		{Self: "a", Peers: []Peer{{Name: "a"}}}, // too few
		{Self: "a", Peers: []Peer{{Name: "a"}, {Name: "a", URL: "http://"}}}, // duplicate
		{Self: "a", Peers: []Peer{{Name: "a"}, {Name: "b"}}},                 // remote without URL
	}
	for i, o := range cases {
		if c, err := New(o); err == nil {
			c.Close()
			t.Errorf("case %d: New accepted invalid options %+v", i, o)
		}
	}
}
