package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

// Headers threaded across hops.
const (
	// ForwardedByHeader marks a request as already forwarded once.  A
	// node receiving it serves locally no matter who owns the ID —
	// forwarding is at most one hop, so failover can never loop.
	ForwardedByHeader = "X-DLSim-Forwarded-By"

	// NodeHeader names the member that actually served the response.
	NodeHeader = "X-DLSim-Node"

	// FailoverHeader is set ("1") on any response produced after at
	// least one failover attempt — the chaos suite's proof that no
	// 5xx escapes without the cluster having tried a replica.  It is
	// also set on forwarded *requests* aimed at a non-owner (failover
	// hops), telling the serving peer that the ID's owner was
	// bypassed: a local lookup miss there must answer retryable (503 +
	// MissHeader) rather than 404, because the owner may still hold
	// the result.
	FailoverHeader = "X-DLSim-Failover"

	// MissHeader is set ("1") on a peer's retryable local-miss
	// response to a failed-over read.  The forwarding node classifies
	// such a response as "this replica does not hold the ID" — not a
	// peer fault, not a relayable answer — and keeps walking the ring.
	MissHeader = "X-DLSim-Miss"

	// RequestIDHeader is the correlation ID threaded across nodes.
	RequestIDHeader = "X-Request-ID"
)

// errPeerMiss marks a forwarded read that a healthy non-owner replica
// answered with "I don't hold this ID": the transport and the peer
// are fine (the breaker records a success), but the response must not
// be relayed — the owner may still hold the result.
var errPeerMiss = errors.New("cluster: replica does not hold the ID")

// Request describes one routable API call.
type Request struct {
	// ID is the content-derived job or batch ID routing the request.
	ID string

	// Method and Path form the forwarded call; Body is the forwarded
	// request body (nil for GETs).
	Method string
	Path   string
	Body   []byte
}

// Outcome reports what Route did.
type Outcome struct {
	// Handled means a peer's response was relayed to the client;
	// the caller must not write anything further.
	Handled bool

	// FailedOver means at least one replica ahead of the resolution
	// point was down, broken open, or failed, or the caller's context
	// ended before a replica answered — the caller served a locally
	// resolved request only because the ring walk fell through to
	// self.  GET handlers use it to answer 503 (owner unreachable,
	// result may exist there) instead of 404 on a local miss.
	FailedOver bool

	// Peer is the member that served, when Handled.
	Peer string
}

// peerResp is a fully buffered peer response, safe to relay after the
// hop's context is gone.
type peerResp struct {
	status int
	header http.Header
	body   []byte
}

// maxRelayBody bounds how much of a peer response is buffered for
// relay (results are small JSON; a batch status tops out well below
// this).
const maxRelayBody = 8 << 20

// Route resolves one request against the ring.  If self owns the ID
// it returns immediately (serve locally).  Otherwise it walks the
// failover sequence: skips peers that are down by probe or breaker,
// forwards to the first available one (with per-peer retries), and
// relays the peer's response.  When every remote candidate ahead of
// self is unavailable, the walk falls through to self and the caller
// serves locally — idempotent by construction, so a re-routed
// submission recomputes bit-identical results.  A walk whose caller
// context ends (client gone, request timeout) stops where it is and
// is reported the same way: the owner was bypassed, and no peer is
// charged for it.  Route never writes a 5xx of its own; the relayed
// response carries FailoverHeader whenever a replica was bypassed.
func (c *Cluster) Route(w http.ResponseWriter, r *http.Request, req Request) Outcome {
	var out Outcome
	reqID := r.Header.Get(RequestIDHeader)
	if reqID == "" {
		reqID = w.Header().Get(RequestIDHeader)
	}
	var sp *telemetry.Span
	if c.tracer != nil {
		sp = c.tracer.Start("fwd-" + reqID).Root()
		sp.SetAttr("id", req.ID)
		sp.SetAttr("owner", c.ring.owner(req.ID))
	}

	ctx := r.Context()
	for _, p := range c.candidates(req.ID) {
		if p.self {
			// Owner, or failover landed here: serve locally.
			if out.FailedOver {
				w.Header().Set(FailoverHeader, "1")
				c.spanNote(sp, "local-failover", c.self)
			}
			return out
		}
		if !p.healthy() || !p.br.allow() {
			out.FailedOver = true
			c.failovers.Inc()
			c.spanNote(sp, "skip", p.name)
			continue
		}
		resp, err := c.tryPeer(ctx, p, req, reqID, sp, out.FailedOver)
		if err == nil {
			if out.FailedOver {
				w.Header().Set(FailoverHeader, "1")
			}
			c.relay(w, resp)
			out.Handled = true
			out.Peer = p.name
			return out
		}
		out.FailedOver = true
		if ctx.Err() != nil {
			// Nobody waits for an answer any more: asking the next
			// replica would only charge it for the caller's deadline.
			w.Header().Set(FailoverHeader, "1")
			c.spanNote(sp, "abandoned", p.name)
			return out
		}
		if !errors.Is(err, errPeerMiss) {
			c.failovers.Inc()
		}
	}
	// Unreachable: self is always on the ring, so the walk above
	// resolves before the sequence is exhausted.
	return out
}

// tryPeer forwards the request to one peer with the retry policy:
// transient failures (transport errors, timeouts, 5xx — all
// idempotent to re-send here) back off and retry up to MaxAttempts,
// then the peer is given up on (the caller fails over).  Outcomes
// feed the peer's breaker and the forward metrics.  failover marks
// the hop as aimed at a non-owner; a local-miss answer from such a
// peer (errPeerMiss) is final for this peer — the peer is healthy
// (the breaker records a success) and re-asking it cannot help, so
// the caller moves on without retries.  A failure that the caller's
// own context caused is not the peer's: it is neither counted nor
// charged to the breaker, and a half-open trial it held is handed
// back.
func (c *Cluster) tryPeer(ctx context.Context, p *peer, req Request, reqID string, sp *telemetry.Span, failover bool) (*peerResp, error) {
	var lastErr error
	for attempt := 1; attempt <= c.retry.MaxAttempts; attempt++ {
		if attempt > 1 {
			select {
			case <-time.After(c.retry.Backoff(attempt-1, rand.Float64())):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		resp, err := c.doOnce(ctx, p, req, reqID, failover)
		c.noteAttempt(sp, p, resp, err, attempt)
		if err == nil {
			p.br.success()
			c.brState.With(p.name).Set(int64(p.br.state()))
			c.forwards.With(p.name, "ok").Inc()
			return resp, nil
		}
		lastErr = err
		if errors.Is(err, errPeerMiss) {
			p.br.success()
			c.brState.With(p.name).Set(int64(p.br.state()))
			c.forwards.With(p.name, "miss").Inc()
			return nil, err
		}
		if ctx.Err() != nil {
			p.br.release()
			return nil, ctx.Err()
		}
		p.br.failure()
		c.brState.With(p.name).Set(int64(p.br.state()))
		c.forwards.With(p.name, "error").Inc()
	}
	return nil, lastErr
}

// doOnce performs one forwarded hop: fault-injection point, per-hop
// timeout, header threading, full body buffering, latency histogram.
// A status >= 500 is a failure — the next replica can serve the same
// content-derived ID, so relaying a peer's 5xx would waste the ring.
// On a failover hop the request carries FailoverHeader, and the
// peer's "I don't hold this ID" answer — MissHeader, or a 404/410
// from an older peer that doesn't stamp it — maps to errPeerMiss
// instead of a relayable response: only the ID's owner may assert
// not-found to the client.
func (c *Cluster) doOnce(ctx context.Context, p *peer, req Request, reqID string, failover bool) (*peerResp, error) {
	if err := faultinject.FireCtx(ctx, "cluster.forward"); err != nil {
		return nil, err
	}
	hctx, cancel := context.WithTimeout(ctx, c.forwardTO)
	defer cancel()
	var body io.Reader
	if req.Body != nil {
		body = bytes.NewReader(req.Body)
	}
	hr, err := http.NewRequestWithContext(hctx, req.Method, p.url+req.Path, body)
	if err != nil {
		return nil, err
	}
	if req.Body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	hr.Header.Set(RequestIDHeader, reqID)
	hr.Header.Set(ForwardedByHeader, c.self)
	if failover {
		hr.Header.Set(FailoverHeader, "1")
	}

	start := time.Now()
	resp, err := c.client.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(io.LimitReader(resp.Body, maxRelayBody+1))
	c.peerLatency.With(p.name).Observe(float64(time.Since(start)) / 1e6)
	if err != nil {
		return nil, err
	}
	if len(buf) > maxRelayBody {
		// Relaying a truncated body would hand the client broken JSON
		// with a clean status; fail the forward instead.
		return nil, fmt.Errorf("cluster: peer %s response exceeds the %d-byte relay cap", p.name, maxRelayBody)
	}
	miss := resp.Header.Get(MissHeader) == "1" ||
		(failover && (resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusGone))
	if miss {
		return nil, fmt.Errorf("%w (peer %s answered %d)", errPeerMiss, p.name, resp.StatusCode)
	}
	if resp.StatusCode >= 500 {
		return nil, fmt.Errorf("cluster: peer %s answered %d", p.name, resp.StatusCode)
	}
	return &peerResp{status: resp.StatusCode, header: resp.Header, body: buf}, nil
}

// relay writes a buffered peer response to the client, preserving the
// headers that matter across the hop (content type, shed hints, and
// the serving node's identity — the peer's NodeHeader wins over the
// relaying node's).
func (c *Cluster) relay(w http.ResponseWriter, resp *peerResp) {
	for _, h := range []string{"Content-Type", "Retry-After", NodeHeader} {
		if v := resp.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(resp.body)))
	w.WriteHeader(resp.status)
	_, _ = w.Write(resp.body)
}

// spanNote records a non-attempt routing event (skip, abandoned
// walk, local failover) in the forward span tree.
func (c *Cluster) spanNote(sp *telemetry.Span, event, peer string) {
	if sp == nil {
		return
	}
	child := sp.Child(event)
	child.SetAttr("peer", peer)
	child.End()
}

// noteAttempt records one forwarded attempt in the span tree.
func (c *Cluster) noteAttempt(sp *telemetry.Span, p *peer, resp *peerResp, err error, attempt int) {
	if sp == nil {
		return
	}
	child := sp.Child("forward")
	child.SetAttr("peer", p.name)
	child.SetAttr("attempt", strconv.Itoa(attempt))
	if err != nil {
		child.SetAttr("error", err.Error())
	} else {
		child.SetAttr("status", strconv.Itoa(resp.status))
	}
	child.End()
}
