package objfile_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/objfile"
	"repro/internal/runner"
)

// TestExternalsMemoMatchesFreshWalk: for every object every registered
// app generates — executable, libraries and each churn generation —
// and for every object of the Validate table, the memoised import list
// and Validate verdict equal a fresh walk of the object, and later
// calls hand back that same list and verdict rather than walking
// again, also when the first calls race.
func TestExternalsMemoMatchesFreshWalk(t *testing.T) {
	check := func(what string, o *objfile.Object) {
		t.Helper()
		got := o.Externals()
		if want := objfile.ScanExternals(o); !slices.Equal(got, want) {
			t.Errorf("%s: Externals = %v, fresh walk %v", what, got, want)
		}
		if again := o.Externals(); len(got) > 0 && &again[0] != &got[0] {
			t.Errorf("%s: second Externals call walked the object again", what)
		}
		verdict := o.Validate()
		if fresh := objfile.ValidateFresh(o); fmt.Sprint(verdict) != fmt.Sprint(fresh) {
			t.Errorf("%s: Validate = %v, fresh walk %v", what, verdict, fresh)
		}
		// A walk builds a new error value, so an invalid object's
		// second call returning another value walked again.
		if again := o.Validate(); again != verdict {
			t.Errorf("%s: second Validate call walked the object again", what)
		}
	}
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
				check(fmt.Sprintf("%s seed %d %s", ws.Name, seed, o.Name()), o)
				if err := o.Validate(); err != nil {
					t.Errorf("%s seed %d %s: generated object invalid: %v", ws.Name, seed, o.Name(), err)
				}
			}
		}
	}
	for i, o := range objfile.InvalidObjects() {
		check(fmt.Sprintf("invalid object %d", i), o)
	}

	// First calls from several goroutines at once, as two jobs linking
	// one pooled bundle make them, share one walk (run with -race).
	w := runner.Workloads[0].Gen(3)
	objs := append([]*objfile.Object{w.App}, w.Libs...)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, o := range objs {
				if err := o.Validate(); err != nil {
					t.Errorf("%s: %v", o.Name(), err)
				}
				_ = o.Externals()
			}
		}()
	}
	wg.Wait()
}
