package workloads

import (
	"testing"

	"repro/internal/ci/analysis"
	"repro/internal/ci/instrument"
	"repro/internal/vm"
)

func TestAllWorkloadsBuildAndVerify(t *testing.T) {
	if len(All) != 28 {
		t.Fatalf("workload count = %d, want 28 (Table 7 rows)", len(All))
	}
	seen := map[string]bool{}
	suites := map[string]int{}
	for _, wl := range All {
		if seen[wl.Name] {
			t.Errorf("duplicate workload %q", wl.Name)
		}
		seen[wl.Name] = true
		suites[wl.Suite]++
		m := wl.Build(1)
		if err := m.Verify(); err != nil {
			t.Errorf("%s: %v", wl.Name, err)
		}
		if m.FuncByName("main") == nil || m.FuncByName("main").NumParams != 1 {
			t.Errorf("%s: main(%%tid) missing", wl.Name)
		}
	}
	if suites["splash2"] != 14 || suites["phoenix"] != 8 || suites["parsec"] != 6 {
		t.Errorf("suite sizes = %v, want splash2:14 phoenix:8 parsec:6", suites)
	}
}

func TestByName(t *testing.T) {
	if ByName("radix") == nil || ByName("radix").Suite != "splash2" {
		t.Error("ByName(radix) wrong")
	}
	if ByName("nope") != nil {
		t.Error("ByName(nope) should be nil")
	}
}

func TestAllWorkloadsRunUninstrumented(t *testing.T) {
	for _, wl := range All {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			m := wl.Build(1)
			v := vm.New(m, nil, 1)
			v.LimitInstrs = 60_000_000
			th := v.NewThread(0)
			if _, err := th.Run("main", 0); err != nil {
				t.Fatalf("run: %v", err)
			}
			if th.Stats.Instrs < 50_000 {
				t.Errorf("only %d instructions; workload too small to measure", th.Stats.Instrs)
			}
			if th.Stats.Instrs > 40_000_000 {
				t.Errorf("%d instructions; workload too big for the harness", th.Stats.Instrs)
			}
		})
	}
}

// Instrumentation must not change any workload's result, for every
// probe design (exercises the full pipeline on all 28 programs).
func TestWorkloadSemanticsPreservedByCI(t *testing.T) {
	designs := []instrument.Design{instrument.CI, instrument.CICycles, instrument.CD, instrument.CnB}
	for _, wl := range All {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			base := wl.Build(1)
			v0 := vm.New(base, nil, 1)
			v0.LimitInstrs = 60_000_000
			th0 := v0.NewThread(0)
			want, err := th0.Run("main", 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range designs {
				m := wl.Build(1)
				if _, err := instrument.Instrument(m, instrument.Options{
					Design:   d,
					Analysis: analysis.Options{ProbeInterval: 250},
				}); err != nil {
					t.Fatalf("%v: %v", d, err)
				}
				v := vm.New(m, nil, 1)
				v.LimitInstrs = 120_000_000
				th := v.NewThread(0)
				th.RT.RegisterCI(5000, func(uint64) {})
				got, err := th.Run("main", 0)
				if err != nil {
					t.Fatalf("%v: %v", d, err)
				}
				if got != want {
					t.Errorf("%v changed result: %d, want %d", d, got, want)
				}
			}
		})
	}
}

// The CI counter must track executed IR across all workloads.
func TestCICounterFidelityAcrossWorkloads(t *testing.T) {
	for _, wl := range All {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			m := wl.Build(1)
			if _, err := instrument.Instrument(m, instrument.Options{
				Design:   instrument.CI,
				Analysis: analysis.Options{ProbeInterval: 250},
			}); err != nil {
				t.Fatal(err)
			}
			v := vm.New(m, nil, 1)
			v.LimitInstrs = 120_000_000
			th := v.NewThread(0)
			th.RT.RegisterCI(5000, func(uint64) {})
			if _, err := th.Run("main", 0); err != nil {
				t.Fatal(err)
			}
			// The counter's contract (§4) is executed IR plus the 100-IR
			// heuristic per uninstrumented external call.
			expected := th.Stats.Instrs + 100*th.Stats.ExtCalls
			ratio := float64(th.RT.InsCount()) / float64(expected)
			if ratio < 0.7 || ratio > 1.4 {
				t.Errorf("counted/expected IR ratio = %.3f, want within [0.7, 1.4]", ratio)
			}
		})
	}
}

func TestScaleGrowsWork(t *testing.T) {
	wl := ByName("histogram")
	instrs := func(scale int) int64 {
		m := wl.Build(scale)
		v := vm.New(m, nil, 1)
		v.LimitInstrs = 100_000_000
		th := v.NewThread(0)
		if _, err := th.Run("main", 0); err != nil {
			t.Fatal(err)
		}
		return th.Stats.Instrs
	}
	n1, n3 := instrs(1), instrs(3)
	if n3 < 2*n1 {
		t.Errorf("scale 3 (%d instrs) should be ~3x scale 1 (%d)", n3, n1)
	}
}

func TestThreadRegionsDisjoint(t *testing.T) {
	// Two threads run the same workload in the same VM; their regions
	// must not interfere (same per-thread results as solo runs for a
	// tid-independent workload).
	wl := ByName("matrix_multiply")
	m := wl.Build(1)
	v := vm.New(m, nil, 2)
	v.LimitInstrs = 100_000_000
	var instrs [2]int64
	for id := range instrs {
		th := v.NewThread(id)
		if _, err := th.Run("main", int64(id)); err != nil {
			t.Fatal(err)
		}
		instrs[id] = th.Stats.Instrs
	}
	if instrs[0] != instrs[1] {
		t.Errorf("threads executed different work: %d vs %d", instrs[0], instrs[1])
	}
}
