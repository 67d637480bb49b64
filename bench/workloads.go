package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/runner"
)

// workload is one traffic mix.  Its op list is a pure function of the
// run seed and the op index; callers work through it in order.
type workload struct {
	name     string
	roundLen int

	// fill, when set, loads a freshly launched daemon before the golden
	// check and may replace it with the daemon that serves the timed
	// phase.
	fill func(ctx context.Context, b *bench, e *env) error

	// op runs op i.  It fails when the daemon answers with an error or
	// a result that breaks a check.
	op func(ctx context.Context, b *bench, e *env, c *client, i int) (opOut, error)

	// checkPhase runs the checks that span several ops of a phase.
	checkPhase func(outs map[int]opOut) []string

	// sameDaemon makes the traced phase replay the op list on the
	// daemon of the untraced phase; otherwise it gets a fresh daemon,
	// since replaying cold jobs on the first would hit its cache.
	sameDaemon bool
}

// opOut is what one successful op returns.
type opOut struct {
	lat  time.Duration
	jobs []jobOut // the jobs it ran, for the pair and cross checks
}

type jobOut struct {
	key string
	r   *resultView
}

// env is a daemon that passed set-up and serves a timed phase.
type env struct {
	d      *daemon
	golden goldenOut
	hot    *hotState // hot-reads only
}

// hotFillSize is the hot-reads working set: four times the daemon's
// retention bound, so reads of its colder part go through to the
// store.
const hotFillSize = 4 * maxRetained

// workloads lists every workload in the order a full run runs them.
var workloads = []*workload{
	{
		name:     "cold-exact",
		roundLen: 12,
		op: func(ctx context.Context, b *bench, e *env, c *client, i int) (opOut, error) {
			spec := coldExactRound(b.seed, i/12)[i%12]
			return oneJob(ctx, c, spec)
		},
		checkPhase: checkPairs,
	},
	{
		name:     "cold-small",
		roundLen: len(coldSmallCells),
		op: func(ctx context.Context, b *bench, e *env, c *client, i int) (opOut, error) {
			n := len(coldSmallCells)
			spec := coldSmallRound(b.seed, i/n)[i%n]
			return oneJob(ctx, c, spec)
		},
	},
	{
		name:       "hot-reads",
		roundLen:   hotRoundLen,
		fill:       fillHot,
		op:         hotReadOp,
		sameDaemon: true,
	},
	{
		name:     "sampled-batch",
		roundLen: 6,
		op: func(ctx context.Context, b *bench, e *env, c *client, i int) (opOut, error) {
			sweep := sampledBatchRound(b.seed, i/6)[i%6]
			jobs, op, err := c.runBatch(ctx, sweep)
			if err != nil {
				return opOut{}, err
			}
			out := opOut{lat: op.dur()}
			for _, jv := range jobs {
				if err := checkSampled(jv); err != nil {
					return opOut{}, err
				}
				out.jobs = append(out.jobs, jobOut{jv.Key, jv.Result})
			}
			return out, nil
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// oneJob is a cold op: one new job from submit to result.
func oneJob(ctx context.Context, c *client, spec runner.JobSpec) (opOut, error) {
	jv, op, err := c.runJob(ctx, spec)
	if err != nil {
		return opOut{}, err
	}
	return opOut{lat: op.dur(), jobs: []jobOut{{jv.Key, jv.Result}}}, nil
}

// checkPairs checks the equivalence invariant on every cold-exact pair
// whose two jobs both finished.
func checkPairs(outs map[int]opOut) []string {
	var bad []string
	for i, base := range outs {
		if i%2 != 0 {
			continue
		}
		if enh, ok := outs[i+1]; ok {
			if err := checkPair(base.jobs[0].r, enh.jobs[0].r); err != nil {
				bad = append(bad, fmt.Sprintf("%s: %v", base.jobs[0].key, err))
			}
		}
	}
	return bad
}

// hotState is the hot-reads working set as the daemon first served it.
type hotState struct {
	specs     []runner.JobSpec
	ids       []string
	answers   [][]byte // job answers, without cache hits (see withoutHit)
	timelines [][]byte // timeline answers
}

// fillHot runs the working set on the fresh daemon, records every
// result and timeline, stops the daemon (a SIGINT drains and flushes
// the store) and relaunches on the same store, so that every read of
// the timed phase starts from the store.
func fillHot(ctx context.Context, b *bench, e *env) error {
	h := &hotState{specs: hotFill(b.seed, hotFillSize)}
	n := len(h.specs)
	h.ids, h.answers, h.timelines = make([]string, n), make([][]byte, n), make([][]byte, n)
	c := newClient(e.d.url, nil)
	defer c.close()
	for i, spec := range h.specs {
		id, err := c.submitJob(ctx, spec, http.StatusAccepted, nil)
		if err != nil {
			return fmt.Errorf("hot-reads fill: %w", err)
		}
		h.ids[i] = id
	}
	for i, id := range h.ids {
		_, cl, err := c.awaitJob(ctx, id, nil)
		if err != nil {
			return fmt.Errorf("hot-reads fill: %w", err)
		}
		h.answers[i] = withoutHit(cl.body)
		tl, err := c.get(ctx, "/v1/jobs/"+id+"/timeline")
		if err != nil {
			return fmt.Errorf("hot-reads fill: %w", err)
		}
		h.timelines[i] = tl.body
	}
	c.close()
	if err := e.d.stop(true); err != nil {
		return fmt.Errorf("hot-reads fill: %w", err)
	}
	d, err := b.launch(ctx, e.d.dir)
	if err != nil {
		return fmt.Errorf("hot-reads restart: %w", err)
	}
	e.d, e.hot = d, h
	return nil
}

// hotReadOp is one hot-reads request; every answer must match what
// the first daemon served before the restart.
func hotReadOp(ctx context.Context, b *bench, e *env, c *client, i int) (opOut, error) {
	o := hotOpAt(b.seed, i, hotFillSize)
	h := e.hot
	id := h.ids[o.idx]
	op := &span{name: "op", start: time.Now()}
	var cl call
	var err error
	switch o.kind {
	case "submit":
		cl, err = c.send(ctx, http.MethodPost, "/v1/jobs", h.specs[o.idx], http.StatusOK)
		if err == nil && !bytes.Contains(cl.body, []byte(`"cached": true`)) {
			err = fmt.Errorf("resubmit of %s was not answered from the cache: %s", id, cl.body)
		}
		if err == nil && !bytes.Contains(cl.body, []byte(`"id": "`+id+`"`)) {
			err = fmt.Errorf("resubmit of %s answered another id: %s", id, cl.body)
		}
	case "read":
		cl, err = c.get(ctx, "/v1/jobs/"+id)
		if err == nil && !bytes.Equal(withoutHit(cl.body), h.answers[o.idx]) {
			err = fmt.Errorf("job %s re-read differs from its first answer:\n%s\n%s", id, cl.body, h.answers[o.idx])
		}
	case "timeline":
		cl, err = c.get(ctx, "/v1/jobs/"+id+"/timeline")
		if err == nil && !bytes.Equal(cl.body, h.timelines[o.idx]) {
			err = fmt.Errorf("timeline of %s re-read differs from its first answer", id)
		}
	}
	if err != nil {
		return opOut{}, err
	}
	c.note(o.kind, cl, op)
	op.end = time.Now()
	c.rec.op(op)
	return opOut{lat: op.dur()}, nil
}
