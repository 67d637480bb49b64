package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/runner"
	"repro/internal/stats"
)

// pollInterval is how often a caller asks whether its job or batch is
// done.  Op latencies therefore carry up to this much quantisation.
const pollInterval = 2 * time.Millisecond

// callers is the number of closed-loop callers, each a goroutine that
// waits for its op to finish before starting the next.  It matches the
// host's two vCPUs and the daemon's default worker count there.
const callers = 2

// client drives one daemon over HTTP with at most callers connections.
type client struct {
	url string
	hc  *http.Client
	rec *recorder // nil in untraced runs
}

func newClient(url string, rec *recorder) *client {
	tr := &http.Transport{MaxConnsPerHost: callers, MaxIdleConnsPerHost: callers, DisableCompression: true}
	return &client{url: url, hc: &http.Client{Transport: tr, Timeout: time.Minute}, rec: rec}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call is one finished HTTP exchange.
type call struct {
	status     int
	body       []byte
	start, end time.Time
}

// send makes one request and fails unless the answer has status want.
func (c *client) send(ctx context.Context, method, path string, body any, want int) (call, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return call{}, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url+path, rd)
	if err != nil {
		return call{}, err
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return call{}, fmt.Errorf("%s %s: %w", method, path, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	cl := call{status: resp.StatusCode, body: b, start: start, end: time.Now()}
	if err != nil {
		return cl, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if cl.status != want {
		return cl, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, cl.status, want, bytes.TrimSpace(b))
	}
	return cl, nil
}

func (c *client) get(ctx context.Context, path string) (call, error) {
	return c.send(ctx, http.MethodGet, path, nil, http.StatusOK)
}

// note records a finished request of the given kind (submit, poll,
// read or timeline) and, when parent is set, adds it as a child span.
func (c *client) note(kind string, cl call, parent *span) {
	if parent != nil {
		parent.add(kind, cl.start, cl.end)
	}
	c.rec.request(kind, cl)
}

// jobView is the part of GET /v1/jobs/{id} the benchmark checks.
type jobView struct {
	ID     string      `json:"id"`
	Key    string      `json:"key"`
	State  string      `json:"state"`
	Error  string      `json:"error"`
	Result *resultView `json:"result"`
}

// resultView holds a result's exact counters and derived rates.
type resultView struct {
	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`
	TrampInstrs  uint64 `json:"tramp_instrs"`
	TrampCalls   uint64 `json:"tramp_calls"`
	TrampSkips   uint64 `json:"tramp_skips"`
	Resolutions  uint64 `json:"resolutions"`
	PKI          struct {
		TrampInstrs float64 `json:"tramp_instrs"`
		L1IMisses   float64 `json:"l1i_misses"`
		Mispredicts float64 `json:"mispredicts"`
	} `json:"pki"`
	Sampled *struct {
		Windows int                       `json:"windows"`
		Metrics map[string]sampledCounter `json:"metrics"`
	} `json:"sampled"`
}

type sampledCounter struct {
	Mean float64 `json:"mean"`
	CI95 float64 `json:"ci95"`
}

// awaitJob polls the job every pollInterval until it finishes.  The
// answer that shows it done is a read and becomes a child of parent;
// the answers before it are polls.
func (c *client) awaitJob(ctx context.Context, id string, parent *span) (*jobView, call, error) {
	for {
		cl, err := c.get(ctx, "/v1/jobs/"+id)
		if err != nil {
			return nil, cl, err
		}
		var jv jobView
		if err := json.Unmarshal(cl.body, &jv); err != nil {
			return nil, cl, fmt.Errorf("job %s: %w", id, err)
		}
		switch jv.State {
		case "done":
			c.note("read", cl, parent)
			if jv.Result == nil {
				return nil, cl, fmt.Errorf("job %s is done but has no result", id)
			}
			return &jv, cl, nil
		case "failed":
			return nil, cl, fmt.Errorf("job %s failed: %s", id, jv.Error)
		}
		c.note("poll", cl, nil)
		if err := sleep(ctx, pollInterval); err != nil {
			return nil, cl, err
		}
	}
}

// submitJob posts a spec and returns the job ID; want is 202 for a new
// job and 200 for one the daemon already holds.
func (c *client) submitJob(ctx context.Context, spec runner.JobSpec, want int, parent *span) (string, error) {
	cl, err := c.send(ctx, http.MethodPost, "/v1/jobs", spec, want)
	if err != nil {
		return "", err
	}
	c.note("submit", cl, parent)
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(cl.body, &sub); err != nil {
		return "", fmt.Errorf("submit answer: %w", err)
	}
	return sub.ID, nil
}

// runJob is one cold op: submit a new job, poll until it is done.
func (c *client) runJob(ctx context.Context, spec runner.JobSpec) (*jobView, *span, error) {
	op := &span{name: "op", start: time.Now()}
	id, err := c.submitJob(ctx, spec, http.StatusAccepted, op)
	if err != nil {
		return nil, nil, err
	}
	wait := &span{name: "wait", start: op.kids[0].end}
	jv, _, err := c.awaitJob(ctx, id, wait)
	wait.end = time.Now()
	op.end = wait.end
	op.kids = append(op.kids, wait)
	if err != nil {
		return nil, nil, err
	}
	return jv, op, c.stitch(ctx, op, wait, id)
}

// batchView is the part of GET /v1/batches/{id} the benchmark checks.
type batchView struct {
	Total     int  `json:"total"`
	Done      int  `json:"done"`
	Failed    int  `json:"failed"`
	Completed bool `json:"completed"`
	Jobs      []struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	} `json:"jobs"`
}

// runBatch is one sampled-batch op: submit the sweep, poll the batch
// until it completes, then read each of its jobs.
func (c *client) runBatch(ctx context.Context, sweep runner.SweepSpec) ([]*jobView, *span, error) {
	op := &span{name: "op", start: time.Now()}
	cl, err := c.send(ctx, http.MethodPost, "/v1/batches", sweep, http.StatusAccepted)
	if err != nil {
		return nil, nil, err
	}
	c.note("submit", cl, op)
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(cl.body, &sub); err != nil {
		return nil, nil, fmt.Errorf("batch submit answer: %w", err)
	}
	wait := &span{name: "wait", start: cl.end}
	op.kids = append(op.kids, wait)
	var bv batchView
	for {
		cl, err := c.get(ctx, "/v1/batches/"+sub.ID)
		if err != nil {
			return nil, nil, err
		}
		if err := json.Unmarshal(cl.body, &bv); err != nil {
			return nil, nil, fmt.Errorf("batch %s: %w", sub.ID, err)
		}
		if bv.Completed {
			c.note("poll", cl, wait)
			break
		}
		c.note("poll", cl, nil)
		if err := sleep(ctx, pollInterval); err != nil {
			return nil, nil, err
		}
	}
	wait.end = time.Now()
	if bv.Failed > 0 || bv.Done != bv.Total || len(bv.Jobs) != bv.Total {
		return nil, nil, fmt.Errorf("batch %s: %d of %d jobs done, %d failed: %+v", sub.ID, bv.Done, bv.Total, bv.Failed, bv.Jobs)
	}
	jobs := make([]*jobView, len(bv.Jobs))
	ids := make([]string, len(bv.Jobs))
	for i, j := range bv.Jobs {
		jv, _, err := c.awaitJob(ctx, j.ID, op)
		if err != nil {
			return nil, nil, err
		}
		jobs[i], ids[i] = jv, j.ID
	}
	op.end = time.Now()
	return jobs, op, c.stitch(ctx, op, wait, ids...)
}

// stitch, in a traced run, fetches the daemon's trace of each job,
// hangs it under parent and records the op.  It runs after the op has
// ended, so its cost shows in the traced run's throughput only.
func (c *client) stitch(ctx context.Context, op, parent *span, ids ...string) error {
	if c.rec == nil {
		return nil
	}
	for _, id := range ids {
		job, err := c.trace(ctx, id)
		if err != nil {
			return err
		}
		parent.kids = append(parent.kids, job)
	}
	c.rec.op(op)
	return nil
}

// trace fetches the daemon's span tree of one job and records it.
func (c *client) trace(ctx context.Context, id string) (*span, error) {
	cl, err := c.get(ctx, "/v1/traces/"+id)
	if err != nil {
		return nil, err
	}
	var tr struct {
		Root traceSpan `json:"root"`
	}
	if err := json.Unmarshal(cl.body, &tr); err != nil {
		return nil, fmt.Errorf("trace %s: %w", id, err)
	}
	job := tr.Root.toSpan()
	c.rec.job(job)
	return job, nil
}

// sleep waits for d or until ctx ends.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// recorder keeps what a traced run measures: each request's latency by
// kind, response sizes, every op's span tree and every job's daemon
// span tree.  Its methods do nothing on a nil recorder.
type recorder struct {
	mu      sync.Mutex
	reqUS   map[string]*stats.Sample
	respKiB stats.Summary
	ops     []*span
	jobs    []*span
}

func newRecorder() *recorder { return &recorder{reqUS: make(map[string]*stats.Sample)} }

func (r *recorder) request(kind string, cl call) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.reqUS[kind]
	if s == nil {
		s = &stats.Sample{}
		r.reqUS[kind] = s
	}
	s.Add(float64(cl.end.Sub(cl.start)) / float64(time.Microsecond))
	r.respKiB.Add(float64(len(cl.body)) / 1024)
}

func (r *recorder) op(s *span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.ops = append(r.ops, s)
	r.mu.Unlock()
}

func (r *recorder) job(s *span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.jobs = append(r.jobs, s)
	r.mu.Unlock()
}
