package objfile_test

import (
	"slices"
	"testing"

	"repro/internal/objfile"
	"repro/internal/runner"
)

// TestExternalsMemoMatchesFreshWalk: for every object every registered
// app generates — executable, libraries and each churn generation —
// the memoised import list equals a fresh walk of the object, and
// later calls hand back that same list rather than walking again.
func TestExternalsMemoMatchesFreshWalk(t *testing.T) {
	for _, ws := range runner.Workloads {
		for seed := uint64(1); seed <= 2; seed++ {
			w := ws.Gen(seed)
			objs := append([]*objfile.Object{w.App}, w.Libs...)
			if w.Churn != nil {
				for _, slot := range w.Churn.Slots {
					objs = append(objs, slot.Gens...)
				}
			}
			for _, o := range objs {
				got := o.Externals()
				if want := objfile.ScanExternals(o); !slices.Equal(got, want) {
					t.Errorf("%s seed %d %s: Externals = %v, fresh walk %v", ws.Name, seed, o.Name(), got, want)
				}
				if again := o.Externals(); len(got) > 0 && &again[0] != &got[0] {
					t.Errorf("%s seed %d %s: second Externals call walked the object again", ws.Name, seed, o.Name())
				}
			}
		}
	}
}
