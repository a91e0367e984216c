package fleet_test

import (
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
// soaks amortize the set-up further and read lower still):
//
//	             map + per-request objects + eager pick   ring, merge, lazy pick
//	mini scale   6.646 (233 137 / 35 078 attempts)        0.052 (1 809)
//	mini zone    5.541 (259 460 / 46 825 attempts)        0.010 (458)
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
