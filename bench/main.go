// Command bench is the repository's benchmark.  It builds cmd/dlsimd,
// launches it as a separate process on a loopback port with a fresh
// result store, drives it over HTTP from closed-loop callers, checks
// every answer it gets, and reports either the end-to-end metrics of
// each workload or, with -trace 1, its per-layer metrics.
//
// Run it from the repository root through the script that keeps all
// build output in .bench_build:
//
//	bash bench/run.sh [-workload cold-exact,hot-reads] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//
// It prints each metric as "workload name value unit" and, as the last
// line, one JSON object {"correct", "attempted", "failed", "metrics"}.
// It exits non-zero when a check fails or the daemon misbehaves.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// bench holds one invocation's settings.
type bench struct {
	work    string // scratch directory for daemon stores, removed at exit
	bin     string // dlsimd binary
	seed    uint64
	seconds time.Duration // length of one timed phase
	setups  int           // set-ups per untraced run
	golden  []goldenRow
	dirs    int       // daemon directories made so far
	daemons []*daemon // launched by the workload running now
}

// report is one workload's outcome.
type report struct {
	metrics   []metric
	attempted int      // ops and golden jobs
	failed    int      // failed ops and failed checks
	failures  []string // the first few failures, for the log
}

// fail counts a failure and keeps its message if it is among the first.
func (r *report) fail(msgs ...string) {
	for _, m := range msgs {
		r.failed++
		if len(r.failures) < 10 {
			r.failures = append(r.failures, m)
		}
	}
}

func main() {
	root := flag.String("root", ".", "repository root: holds cmd/dlsimd and the golden counters")
	names := flag.String("workload", "", "comma-separated workloads to run (default all: cold-exact, cold-small, hot-reads, sampled-batch)")
	seed := flag.Uint64("seed", 1, "seed that every job and request is derived from")
	seconds := flag.Float64("seconds", 45, "length of a timed phase in seconds")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	out := flag.String("out", "", "also write the metrics to this JSON file")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	var ws []*workload
	if *names == "" {
		ws = workloads
	} else {
		for _, n := range strings.Split(*names, ",") {
			w := workloadByName(strings.TrimSpace(n))
			if w == nil {
				fatalf("unknown workload %q", n)
			}
			ws = append(ws, w)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	b, err := newBench(*root, *seed, time.Duration(*seconds*float64(time.Second)))
	if err != nil {
		fatalf("%v", err)
	}
	reports := make(map[string]report, len(ws))
	for _, w := range ws {
		r, err := b.run(ctx, w, *trace == 1)
		if err != nil {
			os.RemoveAll(b.work)
			fatalf("%s: %v", w.name, err)
		}
		reports[w.name] = r
		for _, m := range r.metrics {
			fmt.Printf("%s %s %v %s\n", w.name, m.name, m.value, m.unit)
		}
		for _, f := range r.failures {
			fmt.Fprintf(os.Stderr, "%s: FAILED: %s\n", w.name, f)
		}
	}
	os.RemoveAll(b.work)

	sum := summarize(ws, reports)
	line, err := json.Marshal(sum)
	if err != nil {
		fatalf("%v", err)
	}
	if *out != "" {
		if err := os.WriteFile(*out, append(line, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
	}
	fmt.Println(string(line))
	if !sum.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func newBench(root string, seed uint64, seconds time.Duration) (*bench, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	golden, err := loadGolden(root)
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	bin, err := buildDaemon(root, build)
	if err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	return &bench{work: work, bin: bin, seed: seed, seconds: seconds, setups: setupRepeats, golden: golden}, nil
}

// summary is the last line of output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize folds the reports into the summary line.  A run of one
// workload names its metrics plainly; a run of several prefixes each
// with its workload.
func summarize(ws []*workload, reports map[string]report) summary {
	s := summary{Metrics: make(map[string]metricValue)}
	for _, w := range ws {
		r := reports[w.name]
		s.Attempted += r.attempted
		s.Failed += r.failed
		for _, m := range r.metrics {
			name := m.name
			if len(ws) > 1 {
				name = w.name + "." + name
			}
			s.Metrics[name] = metricValue{m.value, m.unit}
		}
	}
	s.Correct = s.Failed == 0
	return s
}
