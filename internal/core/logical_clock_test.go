package core

import (
	"slices"
	"testing"

	"repro/internal/ci/instrument"
	"repro/internal/ir"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// TestLogicalClock checks the §6 application: the pure-IR design's
// instruction count at each handler invocation is a logical clock for
// deterministic multithreading (à la CoreDet/Kendo), a function of the
// program and its inputs alone, while the cycle-gated design follows
// physical time, which hardware counters do not keep deterministic.
// Two machines differ in their memory system: the slow one has pricier
// loads and stores and more cache misses, so the same program takes
// different cycle counts on each.
func TestLogicalClock(t *testing.T) {
	fast := vm.Default()
	slow := vm.Default()
	slow.OpCost[ir.OpLoad] = 9
	slow.OpCost[ir.OpStore] = 5
	slow.MissP1, slow.MissCost1 = 200, 40
	slow.MissP2, slow.MissCost2 = 30, 500

	// capture runs the histogram workload under design on the machine
	// and returns the logical clock and the cycle clock at every fire.
	capture := func(t *testing.T, design instrument.Design, model *vm.CostModel) (logical, cycles []int64) {
		t.Helper()
		prog, err := Compile(workloads.ByName("histogram").Build(1),
			WithDesign(design), WithProbeInterval(250))
		if err != nil {
			t.Fatal(err)
		}
		machine := vm.New(prog.Mod, model, 1)
		machine.LimitInstrs = 200_000_000
		th := machine.NewThread(0)
		th.RT.RegisterCI(5000, func(uint64) {
			logical = append(logical, th.RT.InsCount())
			cycles = append(cycles, th.Now())
		})
		if _, err := th.Run("main", 0); err != nil {
			t.Fatal(err)
		}
		if len(logical) < 20 {
			t.Fatalf("only %d events", len(logical))
		}
		return logical, cycles
	}

	for _, tc := range []struct {
		name  string
		check func(t *testing.T)
	}{
		{"pure-IR clock equal across machines", func(t *testing.T) {
			fl, fc := capture(t, instrument.CI, fast)
			sl, sc := capture(t, instrument.CI, slow)
			if !slices.Equal(fl, sl) {
				t.Errorf("pure-IR logical clock diverged: %d events ending at %d on the fast machine, %d ending at %d on the slow one",
					len(fl), fl[len(fl)-1], len(sl), sl[len(sl)-1])
			}
			if fc[len(fc)-1] == sc[len(sc)-1] {
				t.Error("the two machines do not differ in physical time")
			}
		}},
		{"cycle clock machine-dependent", func(t *testing.T) {
			fl, _ := capture(t, instrument.CICycles, fast)
			sl, _ := capture(t, instrument.CICycles, slow)
			if slices.Equal(fl, sl) {
				t.Error("cycle-gated clock unexpectedly machine-independent")
			}
		}},
		{"repeatable on one machine", func(t *testing.T) {
			for _, d := range []instrument.Design{instrument.CI, instrument.CICycles} {
				a, _ := capture(t, d, fast)
				b, _ := capture(t, d, fast)
				if !slices.Equal(a, b) {
					t.Errorf("%v: same machine, different traces", d)
				}
			}
		}},
		{"logical clock monotone", func(t *testing.T) {
			l, _ := capture(t, instrument.CI, fast)
			for i := 1; i < len(l); i++ {
				if l[i] <= l[i-1] {
					t.Fatalf("logical clock not monotone at %d: %d -> %d", i, l[i-1], l[i])
				}
			}
		}},
	} {
		t.Run(tc.name, tc.check)
	}
}
