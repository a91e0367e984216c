package vm

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/ir"
	"repro/internal/obs"
)

// The model cost of one taken probe, written out from the CostModel
// fields rather than compared between the tiers (which share the taken
// half, probeTaken): a mov, one probe that fires the one registered
// handler once, and a ret. Every probe kind runs on both tiers, plainly
// and with both per-probe hooks attached (an OnProbe that forces
// nothing and an enabled obs scope), so the compiled rows cover the
// plain and the hooked form.
func TestTakenProbeCost(t *testing.T) {
	const handlerWork = 100
	m := Default()
	for kind := ir.ProbeIR; kind <= ir.ProbeEventCycles; kind++ {
		// The handler's 1-cycle interval is 4 IR and 1 event, so an
		// increment of 10 passes every gate; the cycle-gated kinds see
		// the mov's cycles as time elapsed since registration.
		probe := fmt.Sprintf("probe %v 10", kind)
		switch kind {
		case ir.ProbeIRLoop, ir.ProbeCyclesLoop:
			probe = fmt.Sprintf("probe %v 2 %%i %%b", kind) // (5 - 0) * 2
		case ir.ProbeEvent, ir.ProbeEventCycles:
			probe = fmt.Sprintf("probe %v 1", kind)
		}
		var reads int64
		switch kind {
		case ir.ProbeCycles, ir.ProbeCyclesLoop, ir.ProbeEventCycles:
			reads = 1
		}
		want := Stats{
			Cycles: m.OpCost[ir.OpMov] + m.ProbeBase + reads*m.CycleRead +
				m.ProbeTakenExtra + m.HandlerInvoke + handlerWork + m.TermCost,
			Instrs:       2,
			Probes:       1,
			ProbesTaken:  1,
			HandlerCalls: 1,
			CycleReads:   reads,
		}
		src := fmt.Sprintf("func @main(%%i, %%b) {\nentry:\n  %%x = mov 1\n  %s\n  ret %%x\n}\n", probe)
		for _, tier := range []Tier{TierInterpreter, TierCompiled} {
			for _, hooked := range []bool{false, true} {
				name := fmt.Sprintf("%v/%v/plain", kind, tier)
				if hooked {
					name = fmt.Sprintf("%v/%v/hooked", kind, tier)
				}
				t.Run(name, func(t *testing.T) {
					v := newVM(ir.MustParse(src), nil, 1, tier)
					if hooked {
						v.Obs = obs.New(0)
					}
					th := v.NewThread(0)
					if hooked {
						th.OnProbe = func() int { return 0 }
					}
					th.RT.RegisterCI(1, func(uint64) { th.Charge(handlerWork) })
					if _, err := th.Run("main", 5, 0); err != nil {
						t.Fatal(err)
					}
					if th.Stats != want {
						t.Errorf("Stats = %+v\nwant    %+v", th.Stats, want)
					}
				})
			}
		}
	}
}

// A closure's captures decide its heap size class, and the compiled
// tier's host speed feels it: one more capture in the plain probe
// closures (32 → 48 bytes) cost vm_compiled about 7% with no hot code
// changed. Each kind's plain closure must stay in its size class; the
// hooked form's closures (hookedProbe) are exempt.
func TestPlainProbeClosureSize(t *testing.T) {
	ec := &emitCtx{model: Default()}
	for _, tc := range []struct {
		kind ir.ProbeKind
		max  uint64
	}{
		{ir.ProbeIR, 32},
		{ir.ProbeIRLoop, 48},
		{ir.ProbeCycles, 32},
		{ir.ProbeCyclesLoop, 48},
		{ir.ProbeEvent, 32},
		{ir.ProbeEventCycles, 16},
	} {
		p := &ir.ProbeInfo{Kind: tc.kind, Inc: 3, IndVar: 1, Base: 2}
		const n = 10000
		keep := make([]op, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range keep {
			keep[i] = emitProbe(ec, p, i)
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / n; per > tc.max {
			t.Errorf("%v: a plain probe closure takes %d bytes, want at most %d", tc.kind, per, tc.max)
		}
		runtime.KeepAlive(keep)
	}
}
