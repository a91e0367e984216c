package fleet_test

import (
	"runtime"
	"testing"

	"repro/internal/fleet"
)

// One whole Run — set-up, every epoch, the Result — may allocate at
// most a quarter of a heap object per attempt on the benchmark's mini
// shapes. Allocation counts are exact, so the gate needs no noise
// margin: anything allocated per attempt, per request or per pick adds
// 0.7 or more and fails it. What is left is set-up (controllers, their
// window histograms) and the growth of the reused buffers, which the
// short mini horizons amortize over few attempts.
//
// Measured allocations per attempt, serial run, seed 1 (the full-size
// soaks amortize the set-up further and read lower still). The slab
// column is the request slab, presized latency lists, tails read by
// rank and window histograms only for enabled breakers:
//
//	             map + per-request objects + eager pick   ring, merge, lazy pick   slab
//	mini scale   6.646 (233 137 / 35 078 attempts)        0.052 (1 809)            0.048 (1 697)
//	mini zone    5.541 (259 460 / 46 825 attempts)        0.010 (458)              0.008 (395)
func TestRunAllocsPerAttempt(t *testing.T) {
	scale, zone := benchShapes(1)
	for _, tc := range []goldenCase{{"scale", scale}, {"zone", zone}} {
		var attempts int64
		allocs := testing.AllocsPerRun(1, func() { attempts = fleet.Run(tc.cfg, nil).Attempts })
		per := allocs / float64(attempts)
		t.Logf("%s: %.0f allocations / %d attempts = %.3f", tc.name, allocs, attempts, per)
		if per > 0.25 {
			t.Errorf("%s: %.3f allocations per attempt, want <= 0.25", tc.name, per)
		}
	}
}

// TestRunBytesPerAttempt gates the bytes one whole Run allocates per
// attempt on the benchmark's mini shapes, seed 1, each bound the count
// at the time of writing plus 5%. The counts repeat to within a few
// hundred bytes a run.
//
//	             ring, growing latency        slab, presized lists,     breaker windows
//	             lists, merge copy,           rank tails, lazy          without histograms,
//	             inline histograms            histograms                radix scratch
//	mini scale   203.1 (7 125 048 B)          96.9 (3 400 184 B)        40.0 (1 402 284 B)
//	mini zone     97.0 (4 542 152 B)          69.7 (3 264 120 B)        65.3 (3 059 900 B)
func TestRunBytesPerAttempt(t *testing.T) {
	scale, zone := benchShapes(1)
	for _, tc := range []struct {
		goldenCase
		bound float64
	}{{goldenCase{"scale", scale}, 42.0}, {goldenCase{"zone", zone}, 68.6}} {
		var attempts int64
		bytes := bytesPerRun(2, func() { attempts = fleet.Run(tc.cfg, nil).Attempts })
		per := bytes / float64(attempts)
		t.Logf("%s: %.0f bytes / %d attempts = %.1f", tc.name, bytes, attempts, per)
		if per > tc.bound {
			t.Errorf("%s: %.1f bytes per attempt, want at most %.1f", tc.name, per, tc.bound)
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
