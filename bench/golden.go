package main

import (
	"context"
	"fmt"
	"net/http"

	"repro/internal/runner"
)

// goldenOut is what one golden check saw.
type goldenOut struct {
	results   map[string]*resultView    // by "app/config"
	timelines map[string]timelineTotals // by "app/config"
	bodies    [][]byte                  // result answers, payloads for the store probe
	failures  []string
}

// goldenCheck runs the 12 golden specs on a daemon that has not seen
// them and checks every exact wire field against the golden file, each
// job's timeline against its counters, and each Base/Enhanced pair
// against the equivalence invariant.  An error means the check could
// not run; a mismatch is a failure.
func (b *bench) goldenCheck(ctx context.Context, c *client) (goldenOut, error) {
	g := goldenOut{
		results:   make(map[string]*resultView),
		timelines: make(map[string]timelineTotals),
	}
	ids := make([]string, len(b.golden))
	for i, row := range b.golden {
		id, err := c.submitJob(ctx, goldenSpec(row), http.StatusAccepted, nil)
		if err != nil {
			return g, fmt.Errorf("golden check: %w", err)
		}
		ids[i] = id
	}
	for i, row := range b.golden {
		cell := row.Workload + "/" + row.Config
		jv, cl, err := c.awaitJob(ctx, ids[i], nil)
		if err != nil {
			return g, fmt.Errorf("golden check: %w", err)
		}
		g.results[cell] = jv.Result
		g.bodies = append(g.bodies, cl.body)
		if err := checkGolden(row, jv.Result); err != nil {
			g.failures = append(g.failures, err.Error())
		}
		tcl, err := c.get(ctx, "/v1/jobs/"+ids[i]+"/timeline")
		if err != nil {
			return g, fmt.Errorf("golden check: %w", err)
		}
		c.note("timeline", tcl, nil)
		tt, err := sumTimeline(tcl.body)
		if err != nil {
			return g, fmt.Errorf("golden check: timeline of %s: %w", cell, err)
		}
		g.timelines[cell] = tt
		if tt.Instructions != jv.Result.Instructions || tt.Cycles != jv.Result.Cycles {
			g.failures = append(g.failures, fmt.Sprintf("golden %s: timeline sums to %d instructions and %d cycles, result has %d and %d",
				cell, tt.Instructions, tt.Cycles, jv.Result.Instructions, jv.Result.Cycles))
		}
		if c.rec != nil {
			if _, err := c.trace(ctx, ids[i]); err != nil {
				return g, fmt.Errorf("golden check: %w", err)
			}
		}
	}
	for _, app := range runner.WorkloadNames() {
		base, enh := g.results[app+"/base"], g.results[app+"/enhanced"]
		if base == nil || enh == nil {
			g.failures = append(g.failures, fmt.Sprintf("golden file has no base/enhanced pair for %s", app))
			continue
		}
		if err := checkPair(base, enh); err != nil {
			g.failures = append(g.failures, fmt.Sprintf("golden %s: %v", app, err))
		}
	}
	return g, nil
}

// simMetrics derives the per-app model outputs from a golden check.
// They are exact: a change that is not a model change leaves them
// unchanged.
func simMetrics(g goldenOut) []metric {
	var out []metric
	for _, app := range runner.WorkloadNames() {
		base, enh := g.results[app+"/base"], g.results[app+"/enhanced"]
		if base == nil || enh == nil {
			continue
		}
		flushes := g.timelines[app+"/enhanced"].ABTBFlushes
		p := "sim." + app + "."
		out = append(out,
			metric{p + "saving_pct", 100 * (1 - float64(enh.Cycles)/float64(base.Cycles)), "%"},
			metric{p + "tramp_pki", base.PKI.TrampInstrs, "1/kinstr"},
			metric{p + "abtb_skip_pct", 100 * float64(enh.TrampSkips) / float64(enh.TrampCalls), "%"},
			metric{p + "abtb_flush_pki", 1000 * float64(flushes) / float64(enh.Instructions), "1/kinstr"},
			metric{p + "l1i_mpki_base", base.PKI.L1IMisses, "1/kinstr"},
			metric{p + "l1i_mpki_enh", enh.PKI.L1IMisses, "1/kinstr"},
			metric{p + "mispred_pki_base", base.PKI.Mispredicts, "1/kinstr"},
			metric{p + "mispred_pki_enh", enh.PKI.Mispredicts, "1/kinstr"},
		)
	}
	return out
}
