package core

import (
	"sync"
	"testing"

	"repro/internal/ci/instrument"
	"repro/internal/obs"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// shareWorkloads are the programs the shared-code tests run: one with
// calls (barnes), one with externs (word_count) and two plain kernels.
var shareWorkloads = []string{"barnes", "radix", "dedup", "word_count"}

func compileShared(t *testing.T, name string) *Program {
	t.Helper()
	prog, err := Compile(workloads.ByName(name).Build(1),
		WithDesign(instrument.CI), WithProbeInterval(250))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// A program is pre-decoded once: after its first run, a compiled-tier
// Run allocates no more than the same Run on the interpreter, which
// has nothing to pre-decode, plus runAllocSlack. Rebuilding the
// compiled form on every run adds some 180 allocations per Table-7
// program, so this is the test that catches a Code that stops being
// shared.
func TestSecondRunAllocsMatchInterpreter(t *testing.T) {
	const runAllocSlack = 2
	for _, name := range shareWorkloads {
		prog := compileShared(t, name)
		allocs := func(tier vm.Tier) float64 {
			opts := []Option{WithTier(tier), WithInterval(5000), WithHandler(func(uint64) {})}
			// AllocsPerRun's warm-up run is the first run, which builds
			// the compiled form; the measured runs are repeats.
			return testing.AllocsPerRun(3, func() {
				if _, err := prog.Run("main", opts...); err != nil {
					t.Fatal(err)
				}
			})
		}
		interp, compiled := allocs(vm.TierInterpreter), allocs(vm.TierCompiled)
		t.Logf("%s: interpreter %.0f, compiled %.0f allocations per run", name, interp, compiled)
		if compiled > interp+runAllocSlack {
			t.Errorf("%s: a repeated compiled-tier run allocates %.0f, the interpreter %.0f (slack %d): the run is pre-decoding again",
				name, compiled, interp, runAllocSlack)
		}
	}
}

// One Program runs from several goroutines at once, on its plain form
// (no hook) and its hooked form (an enabled obs scope), both built
// under contention by the first runs. Every run must match a run of a
// separately compiled program; go test -race checks the sharing.
func TestSharedProgramConcurrentRuns(t *testing.T) {
	const goroutines = 4
	for _, name := range shareWorkloads[:2] {
		run := func(prog *Program, hooked bool) vm.Stats {
			opts := []Option{WithInterval(5000), WithHandler(func(uint64) {})}
			if hooked {
				opts = append(opts, WithObs(obs.New(0)))
			}
			res, err := prog.Run("main", opts...)
			if err != nil {
				t.Error(err)
				return vm.Stats{}
			}
			return res.Stats[0]
		}
		ref := compileShared(t, name)
		want := [2]vm.Stats{run(ref, false), run(ref, true)} // plain, hooked
		shared := compileShared(t, name)
		var wg sync.WaitGroup
		got := make([][2]vm.Stats, goroutines)
		for g := range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Half the goroutines start on each form, so both are
				// first built while the other form's runs are under way.
				if g%2 == 0 {
					got[g][0] = run(shared, false)
					got[g][1] = run(shared, true)
				} else {
					got[g][1] = run(shared, true)
					got[g][0] = run(shared, false)
				}
			}()
		}
		wg.Wait()
		for g := range got {
			if got[g] != want {
				t.Errorf("%s: goroutine %d ran %+v, a private program %+v", name, g, got[g], want)
			}
		}
	}
}
