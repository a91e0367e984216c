package core

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/workloads"
)

// TestCompileAllocsPerConfig gates the allocations of Compile on the 28
// Table-7 programs at scale 1, under each configuration of the
// benchmark's compile_corpus workload, probe interval 250. The counts
// are exact and repeat, so each bound is the count at the time of
// writing plus 5%. Before the compile path built each CFG analysis once
// per function and took its memory from slabs (loop sets as bit sets,
// one-pass probe insertion, the reducer's arena, one analysis bundle
// shared by the optimizer's passes), the same measurement read
// CI 6 281, CI-Cycles 6 280, Naive 1 184 and CI+opt 8 102; it reads
// 2 551, 2 551, 482 and 3 145 now.
func TestCompileAllocsPerConfig(t *testing.T) {
	bound := map[string]float64{"CI": 2679, "CI-Cycles": 2679, "Naive": 506, "CI+opt": 3302}
	var mods []*ir.Module
	for _, w := range workloads.All {
		mods = append(mods, w.Build(1))
	}
	for _, c := range goldenConfigs {
		allocs := testing.AllocsPerRun(3, func() {
			for _, m := range mods {
				if _, err := Compile(m, c.opts...); err != nil {
					t.Fatal(err)
				}
			}
		})
		t.Logf("%s: %.0f allocations", c.name, allocs)
		if allocs > bound[c.name] {
			t.Errorf("%s: %.0f allocations, want at most %.0f", c.name, allocs, bound[c.name])
		}
	}
}
