package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/stats"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// tailPercentiles are the percentiles a latency may be reported at.
var tailPercentiles = []float64{50, 90, 95, 99, 99.9}

// highestPercentile returns the highest of tailPercentiles that n
// samples support: one with at least ten samples beyond it.  It returns
// 0 when n supports none.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// opTailPercentile is the tail every workload reports: the highest one
// that the slowest workload, sampled-batch, supports in a run of the
// benchmark's length (260 to 320 ops in 45 s).
const opTailPercentile = 95

// e2eMetrics are the numbers a user of the service sees, from an
// untraced run.
func e2eMetrics(setupS float64, p *phaseOut, rssMiB float64) []metric {
	n := len(p.outs)
	if highestPercentile(n) < opTailPercentile {
		fmt.Fprintf(os.Stderr, "bench: warning: %d ops do not support op_p%d_ms; lengthen the run\n", n, opTailPercentile)
	}
	return []metric{
		{"setup_s", setupS, "s"},
		{"ops_per_s", p.opsPerSec(), "1/s"},
		{"op_p50_ms", p.latMS.Percentile(50), "ms"},
		{fmt.Sprintf("op_p%d_ms", opTailPercentile), p.latMS.Percentile(opTailPercentile), "ms"},
		{"cpu_ms_per_op", ms(p.cpu) / float64(n), "ms"},
		{"rss_peak_mib", rssMiB, "MiB"},
	}
}

// statsView is the part of GET /v1/stats the per-layer metrics use.
type statsView struct {
	CacheHits   uint64 `json:"cache_hits"`
	Deduped     uint64 `json:"deduped"`
	CacheMisses uint64 `json:"cache_misses"`
	Pool        struct {
		ImageHits   uint64 `json:"image_hits"`
		ImageMisses uint64 `json:"image_misses"`
	} `json:"pool"`
	Store struct {
		Hits   uint64 `json:"hits"`
		Writes uint64 `json:"writes"`
	} `json:"store"`
}

func daemonStats(ctx context.Context, url string) (statsView, error) {
	var st statsView
	c := newClient(url, nil)
	defer c.close()
	cl, err := c.get(ctx, "/v1/stats")
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(cl.body, &st)
}

// frac is a/(a+b), or 0 when both are 0.
func frac(a, b uint64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

// layerMetrics are the per-layer numbers of a traced run: the client's
// request latencies, the self times of the daemon's job spans, the
// daemon's lifetime counters, the in-process probes and the exact model
// outputs of the golden check.  Span metrics pool the traced phase with
// the golden check of its daemon, so each has samples on every workload.
func layerMetrics(rec *recorder, st statsView, e *env, pu, pt *phaseOut, probes []metric) []metric {
	p50 := func(kind string) float64 {
		if s := rec.reqUS[kind]; s != nil {
			return s.Percentile(50)
		}
		return 0
	}
	var (
		spans             = make(map[string]*stats.Sample) // duration or self time in ms, by layer metric
		instrs, measureMS float64
	)
	add := func(name string, d time.Duration) {
		if spans[name] == nil {
			spans[name] = &stats.Sample{}
		}
		spans[name].Add(ms(d))
	}
	for _, job := range rec.jobs {
		add("store.persist", selfTime(job))
		instr, _ := strconv.ParseFloat(job.attrs["instructions"], 64) // set on every completed job
		walk(job, func(s *span) {
			switch s.name {
			case "queued", "generate", "warmup":
				add(s.name, s.dur())
			case "measure":
				add(s.name, s.dur())
				instrs += instr
				measureMS += ms(s.dur())
			case "link":
				add(layerOf(s)+".link", s.dur())
			}
		})
	}
	mean := func(name string) float64 {
		if s := spans[name]; s != nil {
			return s.Mean()
		}
		return 0
	}
	pct := func(name string, p float64) float64 {
		if s := spans[name]; s != nil {
			return s.Percentile(p)
		}
		return 0
	}
	var unattr stats.Sample
	for _, op := range rec.ops {
		unattr.Add(ms(unattributed(op)))
	}
	minstr := 0.0
	if measureMS > 0 {
		minstr = instrs / measureMS / 1e3
	}

	out := []metric{
		{"dlsimd.submit_us_p50", p50("submit"), "us"},
		{"dlsimd.poll_us_p50", p50("poll"), "us"},
		{"dlsimd.read_us_p50", p50("read"), "us"},
		{"dlsimd.timeline_us_p50", p50("timeline"), "us"},
		{"dlsimd.resp_kib_mean", rec.respKiB.Mean(), "KiB"},
		{"runner.queued_ms_p50", pct("queued", 50), "ms"},
		{"runner.queued_ms_p95", pct("queued", 95), "ms"},
		{"runner.cache_hit_frac", frac(st.CacheHits, st.CacheMisses+st.Deduped), "ratio"},
		{"store.persist_ms_mean", mean("store.persist"), "ms"},
		{"store.read_frac", frac(st.Store.Hits, st.Store.Writes), "ratio"},
		{"store.open_ms", ms(e.d.ready.Sub(e.d.launched)), "ms"},
		{"workload.generate_ms_mean", mean("generate"), "ms"},
		{"linker.link_ms_mean", mean("linker.link"), "ms"},
		{"pool.fork_ms_mean", mean("pool.link"), "ms"},
		{"pool.image_hit_frac", frac(st.Pool.ImageHits, st.Pool.ImageMisses), "ratio"},
		{"cpu.warmup_ms_mean", mean("warmup"), "ms"},
		{"cpu.measure_ms_mean", mean("measure"), "ms"},
		{"cpu.minstr_per_s", minstr, "Minstr/s"},
	}
	out = append(out, probes...)
	out = append(out, simMetrics(e.golden)...)
	return append(out,
		metric{"unattributed_ms_mean", unattr.Mean(), "ms"},
		metric{"trace_overhead_pct", 100 * (1 - pt.opsPerSec()/pu.opsPerSec()), "%"},
	)
}
