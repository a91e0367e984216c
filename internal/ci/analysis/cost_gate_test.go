package analysis

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/workloads"
)

// TestAnalyzeAllocsPerInstr gates the allocations of the analysis on
// the 28 Table-7 programs at scale 1 (probe interval 250), counted per
// source instruction. The count is exact and repeats, so the bound can
// be tight: 60% of 7.44, what the same measurement read before the
// graph, the dominator tree and the reducer's leaves moved to counted
// arrays and the reducer stopped sorting (then: 11 826 allocations for
// 1 589 instructions; now: 5 340, 3.36 each).
func TestAnalyzeAllocsPerInstr(t *testing.T) {
	const before, runs = 7.44, 3
	instrs := 0
	clones := make([][]*ir.Module, runs+1) // AllocsPerRun makes one extra, unmeasured call
	for _, w := range workloads.All {
		m := w.Build(1)
		for _, f := range m.Funcs {
			instrs += f.NumInstrs()
		}
		for i := range clones {
			clones[i] = append(clones[i], m.Clone())
		}
	}
	call := 0
	allocs := testing.AllocsPerRun(runs, func() {
		for _, m := range clones[call] {
			Analyze(m, Options{ProbeInterval: 250})
		}
		call++
	})
	per := allocs / float64(instrs)
	t.Logf("%.0f allocations for %d instructions: %.2f each", allocs, instrs, per)
	if per > 0.6*before {
		t.Errorf("Analyze: %.2f allocations per instruction, want at most %.2f (60%% of %.2f)", per, 0.6*before, before)
	}
}
