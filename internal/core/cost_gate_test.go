package core

import (
	"runtime"
	"testing"

	"repro/internal/ir"
	"repro/internal/workloads"
)

// table7 builds the 28 Table-7 programs at scale 1.
func table7() []*ir.Module {
	var mods []*ir.Module
	for _, w := range workloads.All {
		mods = append(mods, w.Build(1))
	}
	return mods
}

// compileAll compiles every module under opts.
func compileAll(t *testing.T, mods []*ir.Module, opts []Option) {
	for _, m := range mods {
		if _, err := Compile(m, opts...); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompileAllocsPerConfig gates the allocations of Compile on the 28
// Table-7 programs at scale 1, under each configuration of the
// benchmark's compile_corpus workload, probe interval 250. The counts
// are exact and repeat, so each bound is the count at the time of
// writing plus 5%. Before the compile path built each CFG analysis once
// per function and took its memory from slabs (loop sets as bit sets,
// one-pass probe insertion, the reducer's arena, one analysis bundle
// shared by the optimizer's passes), the same measurement read
// CI 6 281, CI-Cycles 6 280, Naive 1 184 and CI+opt 8 102. Before the
// graph became one int32 array and one bundle's memory served every
// function of a module, it read 2 551, 2 551, 482 and 3 145. Before
// blocks came from a per-function slab, each loop transform's names
// from one string and the reducer's per-function arrays from scratch
// one Analyze call reuses, it read 2 375, 2 375, 491 and 2 605 (Naive's
// nine more than before are the call-record arrays of the clones of the
// nine programs that make calls); it reads 1 837, 1 838, 491 and 2 060
// now.
func TestCompileAllocsPerConfig(t *testing.T) {
	bound := map[string]float64{"CI": 1929, "CI-Cycles": 1930, "Naive": 516, "CI+opt": 2163}
	mods := table7()
	for _, c := range goldenConfigs {
		allocs := testing.AllocsPerRun(3, func() { compileAll(t, mods, c.opts) })
		t.Logf("%s: %.0f allocations", c.name, allocs)
		if allocs > bound[c.name] {
			t.Errorf("%s: %.0f allocations, want at most %.0f", c.name, allocs, bound[c.name])
		}
	}
}

// TestCompileBytesPerConfig gates the bytes Compile allocates on the
// same programs and configurations, each bound the count at the time of
// writing plus 5%. The counts repeat to within a few bytes. Before
// instructions shrank to 40 bytes (call and probe records behind
// pointers), leaf containers to 96 (loop fields in a loop record), the
// graph to one int32 array and the analyses to one reused bundle per
// module, the measurement read CI 666 056 B, CI-Cycles 666 056 B,
// Naive 304 736 B and CI+opt 832 264 B. Before the block slab and the
// reducer's scratch it read 440 504, 440 504, 185 904 and 494 200; it
// reads 431 171, 431 171, 186 448 and 484 189 now (Naive's 544 more are
// the slab's slice header every Func now carries).
func TestCompileBytesPerConfig(t *testing.T) {
	bound := map[string]float64{"CI": 452730, "CI-Cycles": 452730, "Naive": 195770, "CI+opt": 508398}
	mods := table7()
	for _, c := range goldenConfigs {
		bytes := bytesPerRun(3, func() { compileAll(t, mods, c.opts) })
		t.Logf("%s: %.0f bytes", c.name, bytes)
		if bytes > bound[c.name] {
			t.Errorf("%s: %.0f bytes, want at most %.0f", c.name, bytes, bound[c.name])
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes f
// allocates per call, after one warm-up call, on one P.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
