package experiments

import (
	"fmt"

	"repro/internal/ci/instrument"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ir"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// This file implements the hybrid CI/hardware-interrupt design the
// paper names as promising future work (§5.4: "a hybrid CI/hardware-
// interrupt solution may offer the best of both worlds, but we did not
// explore this in depth"): pure-IR compiler interrupts provide the
// cheap common case, while a hardware watchdog timer — re-armed by
// every CI delivery — fires only when compiler interrupts go quiet
// (system calls, uninstrumented library code), bounding the late tail.

// hybridRow compares CI-only and hybrid interval accuracy/overhead on
// one workload.
type hybridRow struct {
	Workload string
	// P99 late error (cycles above target) for CI alone and hybrid.
	CIP99, HybridP99 int64
	// Max late error.
	CIMax, HybridMax int64
	// Overhead vs the uninstrumented baseline.
	CIOverhead, HybridOverhead float64
	// WatchdogFires counts hardware deliveries in the hybrid run.
	WatchdogFires int64
}

// measureHybrid runs the comparison at the given target interval with
// the watchdog deadline at deadlineMult × target. One program is one
// engine cell; a failing program is reported without losing the rest.
// Sources, baselines and programs come from the engine's cache, so a
// program another figure compiled is not compiled again.
func measureHybrid(eng *engine.Engine, names []string, target int64, deadlineMult float64, scale int) ([]hybridRow, []cellError) {
	label := func(i int) string { return "hybrid/" + names[i] }
	return sweep(eng, len(names), label, func(i int) (hybridRow, error) {
		name := names[i]
		wl, err := hybridWorkload(name)
		if err != nil {
			return hybridRow{}, err
		}
		base, err := baselineCached(eng, wl, scale, 1)
		if err != nil {
			return hybridRow{}, err
		}
		prog, err := compileCached(eng, wl, scale,
			core.WithDesign(instrument.CI), core.WithProbeInterval(probeIntervalIR))
		if err != nil {
			return hybridRow{}, err
		}
		// The watchdog is a plain timer interrupt into a user handler
		// (timer_create/SIGEV), far cheaper than the PMU-overflow
		// signal path of Figure 12: ~10k cycles total, ~4k of it before
		// the handler runs. Both runs share the program under it.
		model := vm.Default()
		model.HWInterruptCost = 10000
		model.HWTrapCost = 4000
		code := vm.NewCode(prog.Mod, model)

		runOne := func(hybrid bool) (stats.Summary, float64, int64, error) {
			// Both sources deliver to one handler, and a gap is the
			// time since the last delivery from either.
			var gaps []int64
			var lastFire int64
			s := core.Setup{Threads: 1, Limit: runLimit, IRPerCycle: base.IRPerCycle, Interval: target,
				Handler: func(t *vm.Thread, _ uint64) {
					now := t.Now()
					gaps = append(gaps, now-lastFire)
					lastFire = now
					t.Charge(handlerWorkCycles)
					if hybrid {
						t.RearmHW()
					}
				}}
			if hybrid {
				s.Timer = int64(deadlineMult * float64(target))
			}
			r, err := core.RunThread(code, s, "main", 0)
			if err != nil {
				return stats.Summary{}, 0, 0, err
			}
			over := float64(r.Stats.Cycles)/float64(base.Cycles) - 1
			return stats.Summarize(core.IntervalErrors(gaps, target, false)), over, r.Stats.HWInterrupts, nil
		}

		ciSum, ciOver, _, err := runOne(false)
		if err != nil {
			return hybridRow{}, err
		}
		hySum, hyOver, hwFires, err := runOne(true)
		if err != nil {
			return hybridRow{}, err
		}
		return hybridRow{Workload: name, CIP99: ciSum.P99, HybridP99: hySum.P99, CIMax: ciSum.Max, HybridMax: hySum.Max,
			CIOverhead: ciOver, HybridOverhead: hyOver, WatchdogFires: hwFires}, nil
	})
}

// hybridWorkload resolves a Table-7 workload name or the synthetic
// "syscall-gaps" program whose long uninstrumented calls create the
// exact tails the watchdog exists for.
func hybridWorkload(name string) (*workloads.Workload, error) {
	if name == syscallGapsWorkload.Name {
		return &syscallGapsWorkload, nil
	}
	wl := workloads.ByName(name)
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return wl, nil
}

// syscallGapsWorkload wraps syscallGaps as a workload, so the engine
// caches it under its own name like a Table-7 program.
var syscallGapsWorkload = workloads.Workload{Name: "syscall-gaps", Build: syscallGaps}

// syscallGaps is a service-style loop that periodically enters a long
// uninstrumented library call (~60k cycles — a page-cache read, say):
// pure CIs go quiet for the whole call (and the 100-IR heuristic barely
// advances the counter), so interrupts 12x the target late are
// structural. The watchdog bounds them.
func syscallGaps(scale int) *ir.Module {
	m := ir.NewModule("syscall-gaps")
	m.MemWords = 4096
	m.DeclareExtern("page_read", 60000)
	f := m.NewFunc("main", 1)
	b := ir.NewBuilder(f)
	acc := b.Mov(0)
	b.ConstLoop(int64(300*scale), func(i ir.Reg) {
		// ~40k cycles of instrumented work...
		b.ConstLoop(4000, func(j ir.Reg) {
			v := b.Bin(ir.OpAdd, i, j)
			v2 := b.BinI(ir.OpXor, v, 12345)
			b.BinTo(acc, ir.OpAdd, acc, v2)
		})
		// ...then one long uninstrumented call.
		b.ExtCall("page_read", acc)
	})
	b.Ret(acc)
	f.Reindex()
	if err := m.Verify(); err != nil {
		panic(err)
	}
	return m
}

// hybridWorkloads are the gap-prone programs where the watchdog
// matters: external library calls and long uninstrumented stretches.
var hybridWorkloads = []string{
	"syscall-gaps", "blackscholes", "dedup", "word_count",
	"reverse_index", "barnes", "swaptions",
}

func hybridTable(rows []hybridRow, _ Inputs) *table {
	t := &table{
		title: []string{"Hybrid CI + hardware watchdog (paper §5.4 future work), 5000-cycle target"},
		cols: []column{{"workload", "%-18s", ""}, {"CI p99 err", "%12s", "%12d"}, {"hyb p99", "%12s", "%12d"},
			{"CI max", "%12s", "%12d"}, {"hyb max", "%12s", "%12d"}, {"CI ovh", "%10s", "%9.1f%%"},
			{"hyb ovh", "%10s", "%9.1f%%"}, {"hw fires", "%10s", "%10d"}},
	}
	for _, r := range rows {
		t.rows = append(t.rows, []any{r.Workload, r.CIP99, r.HybridP99, r.CIMax, r.HybridMax,
			r.CIOverhead * 100, r.HybridOverhead * 100, r.WatchdogFires})
	}
	return t
}
