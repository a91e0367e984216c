package vm

// Zero-cost-when-disabled property of the observability layer: the
// probe-fire path must not allocate when the VM has no obs scope.
// execProbe is driven directly so the measurement isolates the probe
// path from the interpreter loop's own setup.

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/obs"
)

func probeFixture(scope *obs.Scope) (*Thread, *ir.Func, *ir.Block, ir.ProbeInfo, []int64) {
	m := ir.MustParse(`
func @main() {
entry:
  %z = mov 0
  ret %z
}
`)
	v := New(m, nil, 1)
	v.Obs = scope
	th := v.NewThread(0)
	th.RT.RegisterCI(100, func(uint64) {})
	f := m.Funcs[0]
	b := f.Blocks[0]
	p := ir.ProbeInfo{Kind: ir.ProbeIR, Inc: 50, IndVar: ir.NoReg, Base: ir.NoReg}
	return th, f, b, p, make([]int64, 4)
}

func TestProbeFirePathNoAllocsWhenObsDisabled(t *testing.T) {
	th, f, b, p, regs := probeFixture(nil)
	// Warm up: the first fires touch ciruntime's interval bookkeeping.
	for i := 0; i < 100; i++ {
		if err := th.execProbe(f, b, p, regs); err != nil {
			t.Fatal(err)
		}
	}
	n := testing.AllocsPerRun(1000, func() {
		if err := th.execProbe(f, b, p, regs); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("probe-fire path allocated %.2f times per probe with obs disabled, want 0", n)
	}
	if th.Stats.ProbesTaken == 0 {
		t.Fatal("probes never fired; the measurement missed the fire path")
	}
}

func TestProbeFirePathRecordsWhenObsEnabled(t *testing.T) {
	scope := obs.New(0)
	th, f, b, p, regs := probeFixture(scope)
	for i := 0; i < 100; i++ {
		if err := th.execProbe(f, b, p, regs); err != nil {
			t.Fatal(err)
		}
	}
	sites := scope.HotSites(0)
	if len(sites) != 1 || sites[0].Fn != "main" || sites[0].Block != "entry" {
		t.Fatalf("sites = %+v", sites)
	}
	if sites[0].Hits != 100 || sites[0].Fired == 0 {
		t.Errorf("site stats = %+v, want 100 hits and some fires", sites[0])
	}
	var fires int
	for _, ev := range scope.Events() {
		if ev.Name == "probe-fire" {
			fires++
		}
	}
	if fires == 0 {
		t.Error("no probe-fire spans recorded")
	}
	if scope.Hist("vm/handler_window_cycles") == nil {
		t.Error("handler-window histogram missing")
	}
}
