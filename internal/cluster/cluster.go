// Package cluster is dlsimd's fault-tolerant sharding layer: a static
// member list, consistent-hash routing of content-derived job and
// batch IDs across N replicas, and an HTTP forwarding path that owns
// the failure story.
//
// Routing is trivial because IDs are content-derived (the same
// property that makes retries idempotent — see DESIGN.md §12): every
// node hashes an ID onto the same ring and forwards to its owner, so
// any replica can front the whole cluster.  The hard part is
// surviving the failures multi-node introduces, and each has an
// explicit mechanism:
//
//   - dead peers    — a background prober hits every peer's /healthz;
//     `FailThreshold` consecutive failures mark it down and the ring
//     walk skips it (failover to the next replica clockwise).
//   - flaky peers   — per-forward failures feed a per-peer circuit
//     breaker (open after `BreakerThreshold` consecutive failures,
//     half-open trial after `BreakerCooldown`), so a peer that
//     answers probes but fails requests is still routed around.
//   - slow peers    — every hop has a `ForwardTimeout`; transient
//     failures retry with capped exponential backoff + jitter
//     (RetryPolicy).  A forward is the one place a failure here can
//     be transient: a job is deterministic, so the runner never
//     re-runs one.
//     A forward that the caller's own context ends (client gone,
//     request timeout) charges no peer and stops the walk.
//   - half-finished work — forwarding is at most one hop (a forwarded
//     request is always served where it lands), and because IDs are
//     content-derived, re-routing a job to a different replica
//     recomputes bit-identical results instead of corrupting state.
//
// Every hop threads X-Request-ID, emits dlsim_cluster_* metrics
// (forwards, failovers, breaker state, per-peer latency histograms)
// and forward/failover spans in the shared tracer, and evaluates the
// `cluster.forward` fault-injection point so the chaos suite can
// drive error/delay/hang through the real client.
package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Peer names one cluster member: its ring identity and base URL.
type Peer struct {
	// Name is the member's stable identity on the hash ring.  It must
	// be unique and identical in every member's configuration, or the
	// nodes will disagree about ownership.
	Name string

	// URL is the member's base HTTP address, e.g. "http://10.0.0.2:8344".
	URL string
}

// Options configures a node's view of the cluster.
type Options struct {
	// Self is this node's Name in Peers.
	Self string

	// Peers is the full static member list, including self.
	Peers []Peer

	// VirtualNodes is the number of ring points per member (0 =
	// default 64).  More points smooth the load split at the cost of
	// a larger ring.
	VirtualNodes int

	// ProbeInterval is the health-probe period (0 = default 1s);
	// ProbeTimeout bounds each probe (0 = default 1s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration

	// FailThreshold is the number of consecutive probe failures that
	// marks a peer down (0 = default 3).
	FailThreshold int

	// BreakerThreshold is the number of consecutive forward failures
	// that opens a peer's circuit breaker (0 = default 5);
	// BreakerCooldown is how long it stays open before a half-open
	// trial (0 = default 2s).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// ForwardTimeout bounds each forwarded hop (0 = default 5s).
	ForwardTimeout time.Duration

	// Retry governs per-peer retransmission of transiently failed
	// forwards before failing over to the next replica.  Every
	// transport error, timeout and 5xx is transient here, because
	// content-derived IDs make re-sends idempotent.  Zero fields
	// select 2 attempts, 10ms base, 200ms cap and 20% jitter.
	Retry RetryPolicy

	// Metrics receives the dlsim_cluster_* instrument set; nil
	// registers into a private registry.  Tracer, when non-nil,
	// records a forward span tree per forwarded request under
	// "fwd-<request-id>".
	Metrics *telemetry.Registry
	Tracer  *telemetry.Tracer

	// Transport overrides the forwarding client's RoundTripper
	// (tests); nil uses a dedicated transport with sane pool limits.
	Transport http.RoundTripper
}

// peer is one member plus this node's live view of it.
type peer struct {
	name string
	url  string
	self bool
	br   *breaker

	mu          sync.Mutex
	probeFails  int  // consecutive health-probe failures
	healthyView bool // probe-driven liveness
}

// healthy reports the probe-driven view of the peer.
func (p *peer) healthy() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.healthyView
}

// Cluster is one node's routing and forwarding engine.  Create it
// with New, share it with the HTTP layer, and Close it on shutdown to
// stop the health prober.
type Cluster struct {
	self   string
	ring   *ring
	peers  map[string]*peer
	client *http.Client
	tracer *telemetry.Tracer

	probeInterval time.Duration
	probeTimeout  time.Duration
	failThreshold int
	forwardTO     time.Duration
	retry         RetryPolicy

	// instruments
	forwards    *telemetry.CounterVec // peer, outcome
	failovers   *telemetry.Counter
	peerUp      *telemetry.GaugeVec
	brState     *telemetry.GaugeVec
	peerLatency *telemetry.HistogramVec
	probes      *telemetry.CounterVec // peer, outcome

	stop chan struct{}
	done chan struct{}
}

// New validates the member list and starts the health prober.
func New(opts Options) (*Cluster, error) {
	if opts.Self == "" {
		return nil, fmt.Errorf("cluster: Self is required")
	}
	if len(opts.Peers) < 2 {
		return nil, fmt.Errorf("cluster: need at least 2 peers, got %d", len(opts.Peers))
	}
	if opts.VirtualNodes <= 0 {
		opts.VirtualNodes = 64
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = time.Second
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = time.Second
	}
	if opts.FailThreshold <= 0 {
		opts.FailThreshold = 3
	}
	if opts.BreakerThreshold <= 0 {
		opts.BreakerThreshold = 5
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = 2 * time.Second
	}
	if opts.ForwardTimeout <= 0 {
		opts.ForwardTimeout = 5 * time.Second
	}
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}

	names := make([]string, 0, len(opts.Peers))
	peers := make(map[string]*peer, len(opts.Peers))
	for _, m := range opts.Peers {
		if m.Name == "" {
			return nil, fmt.Errorf("cluster: peer with empty name")
		}
		if _, dup := peers[m.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate peer name %q", m.Name)
		}
		if m.URL == "" && m.Name != opts.Self {
			return nil, fmt.Errorf("cluster: peer %q has no URL", m.Name)
		}
		peers[m.Name] = &peer{
			name:        m.Name,
			url:         m.URL,
			self:        m.Name == opts.Self,
			br:          newBreaker(opts.BreakerThreshold, opts.BreakerCooldown),
			healthyView: true, // innocent until probed guilty
		}
		names = append(names, m.Name)
	}
	if _, ok := peers[opts.Self]; !ok {
		return nil, fmt.Errorf("cluster: Self %q not in peer list", opts.Self)
	}

	transport := opts.Transport
	if transport == nil {
		transport = &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     30 * time.Second,
		}
	}
	c := &Cluster{
		self:          opts.Self,
		ring:          newRing(names, opts.VirtualNodes),
		peers:         peers,
		client:        &http.Client{Transport: transport},
		tracer:        opts.Tracer,
		probeInterval: opts.ProbeInterval,
		probeTimeout:  opts.ProbeTimeout,
		failThreshold: opts.FailThreshold,
		forwardTO:     opts.ForwardTimeout,
		retry:         opts.Retry.normalized(),

		forwards: reg.CounterVec("dlsim_cluster_forwards_total",
			"Forwarded requests by destination peer and outcome.", "peer", "outcome"),
		failovers: reg.Counter("dlsim_cluster_failovers_total",
			"Requests re-routed past an unavailable or failing owner to the next ring replica."),
		peerUp: reg.GaugeVec("dlsim_cluster_peer_up",
			"Probe-driven peer liveness (1 up, 0 down).", "peer"),
		brState: reg.GaugeVec("dlsim_cluster_breaker_state",
			"Per-peer circuit-breaker state (0 closed, 1 half-open, 2 open).", "peer"),
		peerLatency: reg.HistogramVec("dlsim_cluster_peer_latency_ms",
			"Forwarded-hop latency by destination peer.",
			telemetry.ExponentialBuckets(0.25, 2, 16), "peer"),
		probes: reg.CounterVec("dlsim_cluster_probes_total",
			"Health probes by peer and outcome.", "peer", "outcome"),

		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for name, p := range peers {
		if !p.self {
			c.peerUp.With(name).Set(1)
			c.brState.With(name).Set(int64(breakerClosed))
		}
	}
	go c.probeLoop()
	return c, nil
}

// Close stops the health prober and the forwarding client's idle
// connections.  Forwards in flight finish on their own contexts.
func (c *Cluster) Close() {
	close(c.stop)
	<-c.done
	if t, ok := c.client.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// Self returns this node's member name.
func (c *Cluster) Self() string { return c.self }

// Owner returns the member name owning the ID on the ring.
func (c *Cluster) Owner(id string) string { return c.ring.owner(id) }

// Failovers returns the node's failover count (tests and harnesses;
// the same value is exported as dlsim_cluster_failovers_total).
func (c *Cluster) Failovers() uint64 { return c.failovers.Value() }

// candidates returns the peers in failover order for the ID.
func (c *Cluster) candidates(id string) []*peer {
	names := c.ring.sequence(id)
	out := make([]*peer, len(names))
	for i, n := range names {
		out[i] = c.peers[n]
	}
	return out
}

// probeLoop drives the health view: every ProbeInterval each remote
// peer's /healthz is fetched; FailThreshold consecutive failures mark
// it down (the ring walk then skips it), any success marks it back
// up.  Down peers keep being probed, so recovery is automatic.
func (c *Cluster) probeLoop() {
	defer close(c.done)
	t := time.NewTicker(c.probeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		var wg sync.WaitGroup
		for _, p := range c.peers {
			if p.self {
				continue
			}
			wg.Add(1)
			go func(p *peer) {
				defer wg.Done()
				c.probe(p)
			}(p)
		}
		wg.Wait()
	}
}

// probe fetches one peer's /healthz and updates its liveness view.
func (c *Cluster) probe(p *peer) {
	ctx, cancel := context.WithTimeout(context.Background(), c.probeTimeout)
	defer cancel()
	ok := false
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/healthz", nil)
	if err == nil {
		resp, err := c.client.Do(req)
		if err == nil {
			_ = resp.Body.Close()
			ok = resp.StatusCode < 300
		}
	}
	outcome := "error"
	if ok {
		outcome = "ok"
	}
	c.probes.With(p.name, outcome).Inc()

	p.mu.Lock()
	if ok {
		p.probeFails = 0
		p.healthyView = true
	} else {
		p.probeFails++
		if p.probeFails >= c.failThreshold {
			p.healthyView = false
		}
	}
	up := int64(0)
	if p.healthyView {
		up = 1
	}
	p.mu.Unlock()
	c.peerUp.With(p.name).Set(up)
	c.brState.With(p.name).Set(int64(p.br.state()))
}

// PeerStatus is one member's row in the cluster status report served
// by /readyz.
type PeerStatus struct {
	Name    string `json:"name"`
	URL     string `json:"url,omitempty"`
	Self    bool   `json:"self,omitempty"`
	Healthy bool   `json:"healthy"`
	Breaker string `json:"breaker"`

	// ConsecutiveProbeFailures is the current probe-failure streak —
	// non-zero below FailThreshold means "degrading but still routed".
	ConsecutiveProbeFailures int `json:"consecutive_probe_failures,omitempty"`
}

// Status is the cluster-state block /readyz serves: orchestrators use
// Degraded to distinguish "serving with failover" from "healthy".
type Status struct {
	Self     string       `json:"self"`
	Size     int          `json:"size"`
	Degraded bool         `json:"degraded"`
	Peers    []PeerStatus `json:"peers"`
}

// Status snapshots every member's health and breaker state.  The
// cluster is degraded when any remote peer is down by probe or has a
// non-closed breaker.
func (c *Cluster) Status() Status {
	st := Status{Self: c.self, Size: len(c.peers)}
	for _, name := range c.ring.members {
		p := c.peers[name]
		row := PeerStatus{Name: p.name, URL: p.url, Self: p.self}
		if p.self {
			row.Healthy = true
			row.Breaker = breakerClosed.String()
		} else {
			p.mu.Lock()
			row.Healthy = p.healthyView
			row.ConsecutiveProbeFailures = p.probeFails
			p.mu.Unlock()
			bs := p.br.state()
			row.Breaker = bs.String()
			if !row.Healthy || bs != breakerClosed {
				st.Degraded = true
			}
		}
		st.Peers = append(st.Peers, row)
	}
	return st
}

// PeerForwards is one remote peer's forwarded-request outcome counts.
type PeerForwards struct {
	Peer  string `json:"peer"`
	OK    uint64 `json:"ok"`
	Miss  uint64 `json:"miss"`
	Error uint64 `json:"error"`
}

// Stats is the cluster tier served inside GET /v1/stats: the /readyz
// health view plus this node's forwarding activity, so one endpoint
// summarizes the routing layer next to the pool and store tiers.  All
// values are read from the same telemetry counters /metrics exports.
type Stats struct {
	Status

	// Forwards lists per-remote-peer forward outcomes, ring order,
	// remote peers only (a node never forwards to itself).
	Forwards []PeerForwards `json:"forwards,omitempty"`

	// Failovers counts requests this node answered from a non-owner
	// replica after the owner was skipped or failed.
	Failovers uint64 `json:"failovers"`
}

// Stats snapshots the cluster tier for /v1/stats.
func (c *Cluster) Stats() Stats {
	st := Stats{
		Status:    c.Status(),
		Failovers: c.failovers.Value(),
	}
	for _, name := range c.ring.members {
		p := c.peers[name]
		if p.self {
			continue
		}
		st.Forwards = append(st.Forwards, PeerForwards{
			Peer:  p.name,
			OK:    c.forwards.With(p.name, "ok").Value(),
			Miss:  c.forwards.With(p.name, "miss").Value(),
			Error: c.forwards.With(p.name, "error").Value(),
		})
	}
	return st
}
