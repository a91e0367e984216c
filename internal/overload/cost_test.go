package overload

import (
	"runtime"
	"testing"
)

// With no obs scope the decision paths must stay off the heap: a fleet
// run calls them a few times per attempt on hundreds of controllers.
// One measured run is the whole driveEveryBranch walk on a fresh
// controller (built beforehand), so an allocation on a rare branch —
// a breaker transition, a brownout instant — counts as much as one on
// the admit path; AllocsPerRun rounds down per run, which is why a run
// is not a single call.
func TestDecisionPathsDoNotAllocate(t *testing.T) {
	const runs = 10
	ctls := make([]*Controller, 0, runs+1) // AllocsPerRun adds a warm-up run
	for len(ctls) < cap(ctls) {
		cfg := everyBranchConfig(nil)
		cfg.OnStateChange = func(from, to State, now int64) {}
		ctls = append(ctls, New(cfg))
	}
	next := 0
	n := testing.AllocsPerRun(runs, func() {
		driveEveryBranch(ctls[next])
		next++
	})
	if n != 0 {
		t.Fatalf("Admit/Poll/Observe/StartOrExpire allocate %v objects per walk with a nil scope, want 0", n)
	}
}

// New makes one small object whatever the breaker: an enabled
// breaker keeps its window's latencies in a small array inside the
// controller, not in a LogHist. With the histogram inline in every
// controller, New allocated one 32 768-byte object whatever the
// breaker; with it only in enabled ones, a disabled breaker's
// controller took 768 bytes and an enabled one 32 768; now both take
// 896.
func TestNewDisabledBreakerBytes(t *testing.T) {
	for _, disabled := range []bool{true, false} {
		cfg := &Config{Breaker: BreakerConfig{Disabled: disabled}}
		allocs := testing.AllocsPerRun(10, func() { New(cfg) })
		bytes := bytesPerRun(10, func() { New(cfg) })
		t.Logf("disabled %v: %.0f allocations, %.0f bytes", disabled, allocs, bytes)
		if allocs != 1 || bytes >= 1024 {
			t.Errorf("disabled %v: New allocates %.0f objects, %.0f bytes; want 1 object under 1024 bytes",
				disabled, allocs, bytes)
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
