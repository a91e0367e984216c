package fuzz

import (
	"fmt"
	"testing"

	"repro/internal/ci/analysis"
	"repro/internal/ci/ciruntime"
	"repro/internal/ci/instrument"
	"repro/internal/faults"
	"repro/internal/ir"
	"repro/internal/vm"
)

func runModule(t *testing.T, m *ir.Module, arg int64) int64 {
	t.Helper()
	machine := vm.New(m, nil, 1)
	machine.LimitInstrs = 80_000_000
	th := machine.NewThread(0)
	th.RT.RegisterCI(5000, func(uint64) {})
	rv, err := th.Run("main", arg)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, m)
	}
	return rv
}

func TestGenerateProducesValidPrograms(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		m := Generate(seed, Options{WithExterns: seed%2 == 0})
		if err := m.Verify(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if m.FuncByName("main") == nil {
			t.Fatalf("seed %d: no main", seed)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(7, Options{})
	b := Generate(7, Options{})
	if a.String() != b.String() {
		t.Error("same seed produced different programs")
	}
}

// The tier-differential corpus is only as strong as the shapes the
// generator emits: every superinstruction class the compiled tier
// fuses (cmp+branch epilogues, load feeding arithmetic, arithmetic
// feeding a store) must actually appear in generated programs, or the
// tier oracle silently stops covering fusion.
func TestGenerateCoversFusiblePairs(t *testing.T) {
	var cmpBr, loadArith, arithStore, superRaw, superInstr int
	for seed := uint64(1); seed <= 60; seed++ {
		m := Generate(seed, Options{WithExterns: seed%5 == 0})
		cb, la, as := vm.FusiblePairs(m)
		cmpBr += cb
		loadArith += la
		arithStore += as
		loops, _ := vm.Superblocks(m)
		superRaw += loops
		// The differential oracle runs instrumented programs, so the
		// superblock loop path must also survive instrumentation (the
		// chunked inner loops the transform emits are its main target).
		im := m.Clone()
		if _, err := instrument.Instrument(im, instrument.Options{
			Design:   instrument.CI,
			Analysis: analysis.Options{ProbeInterval: 250},
		}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		loops, _ = vm.Superblocks(im)
		superInstr += loops
	}
	if cmpBr == 0 || loadArith == 0 || arithStore == 0 {
		t.Errorf("fusible pairs over the 60-seed corpus: cmp+br %d, load+arith %d, arith+store %d — every class must appear",
			cmpBr, loadArith, arithStore)
	}
	if superRaw == 0 || superInstr == 0 {
		t.Errorf("superblocks over the 60-seed corpus: raw %d, instrumented %d — the batched loop path must be exercised, not vacuously skipped",
			superRaw, superInstr)
	}
}

// Differential test: every instrumentation design preserves the result
// of randomly generated programs across several inputs. This is the
// broadest check on the loop transform (§3.4), cloning (§3.5) and
// probe-placement correctness.
func TestDifferentialSemanticPreservation(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	for seed := 1; seed <= seeds; seed++ {
		seed := uint64(seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			src := Generate(seed, Options{WithExterns: seed%3 == 0})
			args := []int64{0, 1, 17, 255, 10000}
			want := make([]int64, len(args))
			for i, a := range args {
				want[i] = runModule(t, src.Clone(), a)
			}
			for _, d := range instrument.Designs {
				for _, probeInterval := range []int64{60, 250, 2000} {
					m := src.Clone()
					if _, err := instrument.Instrument(m, instrument.Options{
						Design:   d,
						Analysis: analysis.Options{ProbeInterval: probeInterval},
					}); err != nil {
						t.Fatalf("%v/pi=%d: %v", d, probeInterval, err)
					}
					if err := m.Verify(); err != nil {
						t.Fatalf("%v/pi=%d: invalid IR: %v", d, probeInterval, err)
					}
					for i, a := range args {
						if got := runModule(t, m, a); got != want[i] {
							t.Errorf("%v/pi=%d: main(%d) = %d, want %d",
								d, probeInterval, a, got, want[i])
						}
					}
				}
			}
		})
	}
}

// The CI counter must stay within a bounded relative error of actual
// execution on random programs, not just the curated workloads.
func TestDifferentialCounterFidelity(t *testing.T) {
	for seed := uint64(1); seed <= 15; seed++ {
		m := Generate(seed, Options{})
		if _, err := instrument.Instrument(m, instrument.Options{
			Design:   instrument.CI,
			Analysis: analysis.Options{ProbeInterval: 250},
		}); err != nil {
			t.Fatal(err)
		}
		machine := vm.New(m, nil, 1)
		machine.LimitInstrs = 80_000_000
		th := machine.NewThread(0)
		th.RT.RegisterCI(5000, func(uint64) {})
		if _, err := th.Run("main", 4095); err != nil {
			t.Fatal(err)
		}
		if th.Stats.Instrs < 1000 {
			continue // too tiny to judge
		}
		expected := th.Stats.Instrs + 100*th.Stats.ExtCalls
		ratio := float64(th.RT.InsCount()) / float64(expected)
		if ratio < 0.55 || ratio > 1.6 {
			t.Errorf("seed %d: counted/expected = %.3f (instrs %d)", seed, ratio, th.Stats.Instrs)
		}
	}
}

// Ablation configurations must also preserve semantics.
func TestDifferentialAblations(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		src := Generate(seed, Options{})
		want := runModule(t, src.Clone(), 999)
		for _, opts := range []analysis.Options{
			{ProbeInterval: 250, DisableLoopTransform: true},
			{ProbeInterval: 250, DisableLoopClone: true},
			{ProbeInterval: 250, AllowableError: 10},
			{ProbeInterval: 5000},
		} {
			m := src.Clone()
			if _, err := instrument.Instrument(m, instrument.Options{
				Design: instrument.CI, Analysis: opts,
			}); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if got := runModule(t, m, 999); got != want {
				t.Errorf("seed %d opts %+v: got %d want %d", seed, opts, got, want)
			}
		}
	}
}

// runModuleFaulty executes an instrumented module with a hostile CI
// handler: injected overrun and stall spikes bill extra cycles to the
// thread from inside interrupt context, and the runtime's adaptive
// interval machinery is armed so intervals move mid-run. None of that
// may change the program's result.
func runModuleFaulty(t *testing.T, m *ir.Module, arg int64, plan *faults.Plan) int64 {
	t.Helper()
	machine := vm.New(m, nil, 1)
	machine.LimitInstrs = 80_000_000
	th := machine.NewThread(0)
	inj := faults.New(plan, "fuzz/handler")
	ciid := th.RT.RegisterCI(5000, func(uint64) {
		th.Charge(inj.Overrun() + inj.Stall())
	})
	th.RT.SetPolicy(ciid, &ciruntime.AIMD{})
	rv, err := th.Run("main", arg)
	if err != nil {
		t.Fatalf("faulty run: %v\n%s", err, m)
	}
	return rv
}

// faultPlans are the chaos schedules the differential fuzzer sweeps.
var faultPlans = []*faults.Plan{
	faults.Uniform(101, 0.01),
	{Seed: 102, OverrunProb: 0.5, OverrunCycles: 40_000},
	{Seed: 103, StallProb: 0.2, StallMeanCycles: 25_000},
}

// Differential fuzzing under fault plans: handler-side fault injection
// and adaptive-interval churn must preserve the semantics of every
// instrumentation design on randomly generated programs.
func TestDifferentialUnderFaultPlans(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 6
	}
	for seed := 1; seed <= seeds; seed++ {
		seed := uint64(seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			src := Generate(seed, Options{WithExterns: seed%2 == 0})
			want := runModule(t, src.Clone(), 4095)
			for _, d := range instrument.Designs {
				m := src.Clone()
				if _, err := instrument.Instrument(m, instrument.Options{
					Design:   d,
					Analysis: analysis.Options{ProbeInterval: 250},
				}); err != nil {
					t.Fatalf("%v: %v", d, err)
				}
				for pi, plan := range faultPlans {
					if got := runModuleFaulty(t, m.Clone(), 4095, plan); got != want {
						t.Errorf("%v/plan%d: main(4095) = %d, want %d", d, pi, got, want)
					}
				}
			}
		})
	}
}

// Crasher corpus from the fault-plan hunt (seeds 1..400 x every
// instrumentation design x faultPlans). The sweep surfaced no semantic
// divergence; the only instrumented-run failures were instruction-
// budget artifacts, and seed 202 was the boundary case at the time:
// its program ran within 2% of the harness's 80M budget, so the ~5%
// probe overhead pushed every CI design over the limit. The generator
// grammar has evolved since (superinstruction-pair statements), so the
// seed no longer maps to that exact program, but the case stays pinned
// by name with an adequate budget as a regression anchor.
func TestCrasherSeed202BudgetBoundary(t *testing.T) {
	src := Generate(202, Options{WithExterns: true})
	base := vm.New(src.Clone(), nil, 1)
	base.LimitInstrs = 200_000_000
	th := base.NewThread(0)
	th.RT.RegisterCI(5000, func(uint64) {})
	want, err := th.Run("main", 4095)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	for _, d := range instrument.Designs {
		m := src.Clone()
		if _, err := instrument.Instrument(m, instrument.Options{
			Design:   d,
			Analysis: analysis.Options{ProbeInterval: 250},
		}); err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		for pi, plan := range faultPlans {
			mm := m.Clone()
			machine := vm.New(mm, nil, 1)
			machine.LimitInstrs = 200_000_000
			fth := machine.NewThread(0)
			inj := faults.New(plan, "fuzz/handler")
			ciid := fth.RT.RegisterCI(5000, func(uint64) {
				fth.Charge(inj.Overrun() + inj.Stall())
			})
			fth.RT.SetPolicy(ciid, &ciruntime.AIMD{})
			got, err := fth.Run("main", 4095)
			if err != nil {
				t.Fatalf("%v/plan%d: %v", d, pi, err)
			}
			if got != want {
				t.Errorf("%v/plan%d: main(4095) = %d, want %d", d, pi, got, want)
			}
		}
	}
}
