package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"
)

// declared returns the metric names BENCHMARK.json declares in section.
func declared(t *testing.T, section string) []string {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var ms []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(doc[section], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

// checkReport fails unless the report is clean and names exactly the
// declared metrics, each a finite number.
func checkReport(t *testing.T, name string, rep report, want []string) {
	t.Helper()
	if rep.failed != 0 || rep.attempted == 0 {
		t.Errorf("%s: %d of %d attempts failed: %v", name, rep.failed, rep.attempted, rep.failures)
	}
	var got []string
	for _, m := range rep.metrics {
		got = append(got, m.name)
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			t.Errorf("%s: %s = %v", name, m.name, m.value)
		}
	}
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("%s reports %d metrics, BENCHMARK.json declares %d:\n%v\n%v", name, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s reports %s where BENCHMARK.json declares %s", name, got[i], want[i])
		}
	}
}

// TestSmoke runs every workload untraced against a real daemon with
// one set-up and one round each.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs dlsimd")
	}
	b, err := newBench("..", 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(b.work)
	b.setups = 1
	want := declared(t, "end_to_end")
	start := time.Now()
	for _, w := range workloads {
		rep, err := b.run(context.Background(), w, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkReport(t, w.name, rep, want)
		for _, m := range rep.metrics {
			if m.value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.name, m.value)
			}
		}
	}
	if took := time.Since(start); took > 15*time.Second {
		t.Errorf("four workloads took %v, want under 15 s", took)
	}
}

// TestSmokeTraced runs the traced path of a workload that replays on a
// fresh daemon and one that replays on the same daemon.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs dlsimd")
	}
	b, err := newBench("..", 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(b.work)
	want := declared(t, "per_layer")
	for _, name := range []string{"cold-exact", "hot-reads"} {
		rep, err := b.run(context.Background(), workloadByName(name), true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkReport(t, name, rep, want)
	}
}
