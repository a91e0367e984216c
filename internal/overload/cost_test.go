package overload

import "testing"

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
