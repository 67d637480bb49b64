package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/stats"
)

// setupRepeats is how often an untraced run sets up from scratch; it
// reports the median, since one set-up is short and noisy.  The host's
// speed drifts over tens of seconds, so the set-ups are spread around
// the timed phase rather than run back to back.
const setupRepeats = 5

// run runs one workload, untraced or traced, and stops every daemon it
// started before returning.
func (b *bench) run(ctx context.Context, w *workload, traced bool) (report, error) {
	ctx, cancel := context.WithTimeout(ctx, 2*b.seconds+2*time.Minute)
	defer cancel()
	defer b.killAll()
	if traced {
		return b.runTraced(ctx, w)
	}
	return b.runUntraced(ctx, w)
}

// launch starts a daemon whose store lives in dir and remembers it, so
// that killAll can stop it whatever path the run takes.
func (b *bench) launch(ctx context.Context, dir string) (*daemon, error) {
	d, err := launch(ctx, b.bin, dir)
	if err == nil {
		b.daemons = append(b.daemons, d)
	}
	return d, err
}

// killAll kills every daemon still running and waits for each to end.
func (b *bench) killAll() {
	for _, d := range b.daemons {
		select {
		case <-d.exited:
		default:
			d.kill()
		}
	}
	b.daemons = nil
}

// setUp launches a daemon on a fresh store, runs the workload's fill
// and the golden check, and returns the daemon ready for a timed phase
// with the time all that took.  rec, when set, records the golden check.
func (b *bench) setUp(ctx context.Context, w *workload, rep *report, rec *recorder) (*env, time.Duration, error) {
	start := time.Now()
	b.dirs++
	d, err := b.launch(ctx, filepath.Join(b.work, fmt.Sprint("d", b.dirs)))
	if err != nil {
		return nil, 0, err
	}
	e := &env{d: d}
	if w.fill != nil {
		if err := w.fill(ctx, b, e); err != nil {
			return nil, 0, err
		}
	}
	c := newClient(e.d.url, rec)
	defer c.close()
	if e.golden, err = b.goldenCheck(ctx, c); err != nil {
		return nil, 0, err
	}
	rep.attempted += len(b.golden)
	rep.fail(e.golden.failures...)
	return e, time.Since(start), nil
}

// phaseOut is what one timed phase measured.
type phaseOut struct {
	latMS stats.Sample  // latency of each successful op
	outs  map[int]opOut // successful ops by index
	wall  time.Duration // first op start to last op end
	cpu   time.Duration // daemon CPU time over the phase
}

// opsPerSec is the phase's throughput in successful ops.
func (p *phaseOut) opsPerSec() float64 { return float64(len(p.outs)) / p.wall.Seconds() }

// runPhase runs the workload's op list from op 0 on callers closed-loop
// callers until length has passed, then finishes the round in progress;
// it runs at least one round.
func (b *bench) runPhase(ctx context.Context, w *workload, e *env, rec *recorder, length time.Duration, rep *report) (*phaseOut, error) {
	c := newClient(e.d.url, rec)
	defer c.close()
	cpu0, err := e.d.cpuTime()
	if err != nil {
		return nil, err
	}
	p := &phaseOut{outs: make(map[int]opOut)}
	start := time.Now()
	deadline := start.Add(length)
	var mu sync.Mutex // guards next, p and rep
	next := 0
	var wg sync.WaitGroup
	for k := 0; k < callers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				mu.Lock()
				if next > 0 && next%w.roundLen == 0 && !time.Now().Before(deadline) {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				out, err := w.op(ctx, b, e, c, i)
				mu.Lock()
				rep.attempted++
				if err != nil {
					rep.fail(fmt.Sprintf("op %d: %v", i, err))
				} else {
					p.outs[i] = out
					p.latMS.Add(ms(out.lat))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cpu1, err := e.d.cpuTime()
	if err != nil {
		return nil, err
	}
	p.cpu = cpu1 - cpu0
	if len(p.outs) == 0 {
		return nil, fmt.Errorf("no op succeeded: %v", rep.failures)
	}
	if w.checkPhase != nil {
		rep.fail(w.checkPhase(p.outs)...)
	}
	return p, nil
}

// runUntraced sets up b.setups times, runs one timed phase of full
// length on the daemon of the middle set-up, and reports the end-to-end
// metrics.
func (b *bench) runUntraced(ctx context.Context, w *workload) (report, error) {
	var rep report
	var setupS stats.Sample
	var p *phaseOut
	var rss float64
	for k := 0; k < b.setups; k++ {
		e, took, err := b.setUp(ctx, w, &rep, nil)
		if err != nil {
			return rep, err
		}
		setupS.Add(took.Seconds())
		if k == b.setups/2 {
			if p, err = b.runPhase(ctx, w, e, nil, b.seconds, &rep); err != nil {
				return rep, err
			}
			if rss, err = e.d.peakRSS(); err != nil {
				return rep, err
			}
		}
		if err := e.d.stop(false); err != nil {
			return rep, err
		}
	}
	rep.metrics = e2eMetrics(setupS.Percentile(50), p, rss)
	return rep, nil
}

// runTraced runs the op list twice for half the length each: untraced,
// then traced from op 0 again (on a fresh daemon unless the workload
// replays on the same one).  The traced phase gives the per-layer
// metrics; comparing the two gives the tracing overhead and checks that
// tracing changed no simulated output.
func (b *bench) runTraced(ctx context.Context, w *workload) (report, error) {
	var rep report
	rec := newRecorder()
	var setupRec *recorder
	if w.sameDaemon {
		setupRec = rec
	}
	e, _, err := b.setUp(ctx, w, &rep, setupRec)
	if err != nil {
		return rep, err
	}
	pu, err := b.runPhase(ctx, w, e, nil, b.seconds/2, &rep)
	if err != nil {
		return rep, err
	}
	if !w.sameDaemon {
		if err := e.d.stop(false); err != nil {
			return rep, err
		}
		if e, _, err = b.setUp(ctx, w, &rep, rec); err != nil {
			return rep, err
		}
	}
	pt, err := b.runPhase(ctx, w, e, rec, b.seconds/2, &rep)
	if err != nil {
		return rep, err
	}
	st, err := daemonStats(ctx, e.d.url)
	if err != nil {
		return rep, err
	}
	if err := e.d.stop(false); err != nil {
		return rep, err
	}
	compared, bad := crossCheck(pu, pt)
	rep.attempted += compared
	rep.fail(bad...)
	probes, err := b.runProbes(ctx, e.golden.bodies)
	if err != nil {
		return rep, err
	}
	rep.metrics = layerMetrics(rec, st, e, pu, pt, probes)
	return rep, nil
}

// crossCheck compares the simulated outputs of the jobs both phases
// ran: tracing must not change a single counter.
func crossCheck(pu, pt *phaseOut) (compared int, bad []string) {
	for i, t := range pt.outs {
		u, ok := pu.outs[i]
		if !ok {
			continue
		}
		for k, tj := range t.jobs {
			uj := u.jobs[k]
			compared++
			if tj.key != uj.key || tj.r.Instructions != uj.r.Instructions || tj.r.Cycles != uj.r.Cycles {
				bad = append(bad, fmt.Sprintf("traced %s: %d instructions, %d cycles; untraced %s: %d, %d",
					tj.key, tj.r.Instructions, tj.r.Cycles, uj.key, uj.r.Instructions, uj.r.Cycles))
			}
		}
	}
	return compared, bad
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
