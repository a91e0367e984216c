package ciruntime

// Regression test for the Deregister + re-Register stale-baseline bug:
// a handler registered mid-run must measure its first inter-fire gap
// from its registration time, not from virtual-time zero. Before the
// fix, RegisterCI left lastFireCycles at 0, so the first cycle-based
// fire recorded a gap equal to the absolute timestamp.

import "testing"

func TestReRegisterDoesNotInheritStaleBaseline(t *testing.T) {
	rt := New()
	rt.RecordIntervals = true
	const interval = 5000
	id := rt.RegisterCI(interval, func(uint64) {})

	now := int64(0)
	step := func(until int64) {
		for now < until {
			now += 1000
			probeCycles(rt, 1000, now)
		}
	}
	step(100_000)
	if rt.Fires(id) == 0 {
		t.Fatal("handler never fired before deregistration")
	}
	rt.Deregister(id)

	// The program runs on for a long stretch with no handler; probes
	// keep advancing the runtime's notion of "now".
	step(200_000)

	id2 := rt.RegisterCI(interval, func(uint64) {})
	step(300_000)
	ivs := rt.Intervals(id2)
	if len(ivs) == 0 {
		t.Fatal("re-registered handler never fired")
	}
	// The first gap must be on the order of the interval (cycle-gated
	// probes can stretch it a few-fold), not the ~200k cycles of
	// absolute time that a zero baseline would produce.
	if ivs[0] > 10*interval {
		t.Errorf("first interval after re-register = %d cycles, want ~%d (stale baseline inherited)",
			ivs[0], interval)
	}
}

func TestRegisterBeforeFirstProbeKeepsZeroBaseline(t *testing.T) {
	// Registering before any probe has run must keep the historical
	// zero baseline: the first fire measures from program start.
	rt := New()
	rt.RecordIntervals = true
	id := rt.RegisterCI(5000, func(uint64) {})
	now := int64(0)
	for now < 50_000 {
		now += 1000
		probeCycles(rt, 1000, now)
	}
	ivs := rt.Intervals(id)
	if len(ivs) == 0 {
		t.Fatal("handler never fired")
	}
	if ivs[0] <= 0 {
		t.Errorf("first interval = %d, want positive gap from t=0", ivs[0])
	}
}
