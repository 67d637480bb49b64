// Command experiments regenerates every table and figure of the
// paper's evaluation (§5) plus this reproduction's ablations, printing
// them in the paper's layout with the published values alongside.
//
// Usage:
//
//	experiments [-seed N] [-scale F] [-only LIST] [-ablations] [-workers N]
//	            [-trace-out DIR]
//
// -scale multiplies the measured request counts (0.25 for a quick
// smoke run, 2 for smoother distributions); -only selects a
// comma-separated subset of artefacts (e.g. "table2,figure5");
// -workers sizes the simulation pool the suite fans out on (0 means
// one worker per CPU); -trace-out dumps every simulation's span tree
// (queued and attempt phases with generate/link/warmup/measure steps)
// as one JSON file per job in the given directory, for profiling where
// a slow run spent its time.  Each simulation runs once: a failure,
// such as a recovered panic, fails its artefact and the command exits
// 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/telemetry"
)

// dumpTraces writes each retained job trace as <dir>/<jobID>.json and
// returns how many were written.
func dumpTraces(pool *runner.Runner, dir string) (int, error) {
	traces := pool.Tracer().Traces()
	if len(traces) == 0 {
		return 0, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	for _, tr := range traces {
		snap := tr.Snapshot()
		b, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			return 0, err
		}
		if err := os.WriteFile(filepath.Join(dir, snap.ID+".json"), append(b, '\n'), 0o644); err != nil {
			return 0, err
		}
	}
	return len(traces), nil
}

func main() {
	seed := flag.Uint64("seed", 1, "simulation seed (same seed, same results)")
	scale := flag.Float64("scale", 1, "request-count multiplier")
	only := flag.String("only", "", "comma-separated artefacts (table2,table3,table4,table5,table6,figure4,figure5,figure6,figure7,figure8,memory,speedups; ablation1-ablation7 with -ablations)")
	ablations := flag.Bool("ablations", false, "also run ablations A1-A7 (slow)")
	workers := flag.Int("workers", 0, "simulation pool size (0 = one per CPU)")
	traceOut := flag.String("trace-out", "", "directory to dump per-simulation span trees as JSON (empty = off)")
	flag.Parse()

	var tracer *telemetry.Tracer
	if *traceOut != "" {
		// Retain every simulation of the run, not just the default
		// ring's worth (ablation sweeps can exceed it).
		tracer = telemetry.NewTracer(4096)
	}
	pool := runner.New(runner.Options{
		Workers: *workers,
		Tracer:  tracer,
	})
	defer pool.Close()
	s := experiments.NewSuiteWithRunner(*seed, *scale, pool)
	want := map[string]bool{}
	for _, name := range strings.Split(*only, ",") {
		if name = strings.TrimSpace(name); name != "" {
			want[name] = true
		}
	}
	sel := func(name string) bool { return len(want) == 0 || want[name] }

	type artefact struct {
		name string
		run  func() (string, error)
	}
	arts := []artefact{
		{"table2", func() (string, error) {
			rows, err := s.Table2()
			if err != nil {
				return "", err
			}
			return experiments.FormatTable2(rows), nil
		}},
		{"table3", func() (string, error) {
			rows, err := s.Table3()
			if err != nil {
				return "", err
			}
			return experiments.FormatTable3(rows), nil
		}},
		{"figure4", func() (string, error) {
			series, err := s.Figure4()
			if err != nil {
				return "", err
			}
			return experiments.FormatFigure4(series), nil
		}},
		{"table4", func() (string, error) {
			rows, err := s.Table4()
			if err != nil {
				return "", err
			}
			return experiments.FormatTable4(rows), nil
		}},
		{"figure5", func() (string, error) {
			series, err := s.Figure5()
			if err != nil {
				return "", err
			}
			return experiments.FormatFigure5(series), nil
		}},
		{"figure6", func() (string, error) {
			pairs, err := s.Figure6()
			if err != nil {
				return "", err
			}
			return experiments.FormatCDFPairs("Figure 6. Apache response-time CDFs (SPECweb 2009 request types)", pairs), nil
		}},
		{"table5", func() (string, error) {
			rows, err := s.Table5()
			if err != nil {
				return "", err
			}
			return experiments.FormatTable5(rows), nil
		}},
		{"figure7", func() (string, error) {
			hists, err := s.Figure7()
			if err != nil {
				return "", err
			}
			return experiments.FormatFigure7(hists), nil
		}},
		{"figure8", func() (string, error) {
			pairs, err := s.Figure8()
			if err != nil {
				return "", err
			}
			return experiments.FormatCDFPairs("Figure 8. MySQL response-time CDFs (TPC-C transactions)", pairs), nil
		}},
		{"table6", func() (string, error) {
			rows, err := s.Table6()
			if err != nil {
				return "", err
			}
			return experiments.FormatTable6(rows), nil
		}},
		{"memory", func() (string, error) {
			m, err := s.MemorySavingsExperiment(450) // "hundreds or even thousands of processes"
			if err != nil {
				return "", err
			}
			return experiments.FormatMemorySavings(m), nil
		}},
		{"speedups", func() (string, error) {
			rows, err := s.Speedups()
			if err != nil {
				return "", err
			}
			return experiments.FormatSpeedups(rows), nil
		}},
	}
	if *ablations {
		arts = append(arts,
			artefact{"ablation1", func() (string, error) {
				p, err := s.AblationBloomSize()
				if err != nil {
					return "", err
				}
				return experiments.FormatBloomSweep(p), nil
			}},
			artefact{"ablation2", func() (string, error) {
				p, err := s.AblationBindingModes()
				if err != nil {
					return "", err
				}
				return experiments.FormatBindingModes(p), nil
			}},
			artefact{"ablation3", func() (string, error) {
				p, err := s.AblationExplicitInvalidate()
				if err != nil {
					return "", err
				}
				return experiments.FormatExplicitInvalidate(p), nil
			}},
			artefact{"ablation4", func() (string, error) {
				p, err := s.AblationContextSwitch()
				if err != nil {
					return "", err
				}
				return experiments.FormatContextSwitch(p), nil
			}},
			artefact{"ablation5", func() (string, error) {
				p, err := s.AblationABTBGeometry()
				if err != nil {
					return "", err
				}
				return experiments.FormatABTBGeometry(p), nil
			}},
			artefact{"ablation6", func() (string, error) {
				p, err := s.AblationPLTStyle()
				if err != nil {
					return "", err
				}
				return experiments.FormatPLTStyle(p), nil
			}},
			artefact{"ablation7", func() (string, error) {
				p, err := s.AblationSMP()
				if err != nil {
					return "", err
				}
				return experiments.FormatSMP(p), nil
			}},
		)
	}

	// Reject unknown -only names up front instead of silently printing
	// nothing (e.g. a typo like "tabel2").
	valid := map[string]bool{}
	names := make([]string, 0, len(arts))
	for _, a := range arts {
		valid[a.name] = true
		names = append(names, a.name)
	}
	sort.Strings(names)
	for name := range want {
		if !valid[name] {
			fmt.Fprintf(os.Stderr, "experiments: unknown artefact %q in -only\n", name)
			if strings.HasPrefix(name, "ablation") && !*ablations {
				fmt.Fprintf(os.Stderr, "experiments: ablations require the -ablations flag\n")
			}
			fmt.Fprintf(os.Stderr, "experiments: valid artefacts: %s\n", strings.Join(names, ", "))
			os.Exit(2)
		}
	}

	for _, a := range arts {
		if !sel(a.name) {
			continue
		}
		out, err := a.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", a.name, err)
			os.Exit(1)
		}
		fmt.Println(out)
	}
	if *traceOut != "" {
		n, err := dumpTraces(pool, *traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: trace dump: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "experiments: wrote %d trace(s) to %s\n", n, *traceOut)
	}
}
