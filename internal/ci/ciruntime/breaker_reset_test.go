package ciruntime

// Regression test for the breaker→AIMD coupling: when an overload
// breaker trips, the AIMD backoff learned under the broken regime must
// not persist. ResetQuantum snaps the interval back to the registered
// base so the half-open probes observe the handler at its design
// cadence, not the drowned one.

import (
	"testing"

	"repro/internal/overload"
)

func TestBreakerTripResetsAIMDInterval(t *testing.T) {
	rt := New()
	const base = 5000
	id := rt.RegisterCI(base, func(uint64) {})
	rt.SetPolicy(id, &AIMD{})

	// Overrun-sized probe gaps back the interval off the base.
	now := int64(0)
	for i := 0; i < 40; i++ {
		now += 20_000
		rt.ProbeCycles(20_000, now)
	}
	backed := rt.CurrentInterval(id)
	if backed <= base {
		t.Fatalf("AIMD never backed off: interval %d, base %d", backed, base)
	}

	// An overload breaker whose trip hook resets the runtime's AIMD
	// state — the coupling the server apps wire up.
	var trips int
	ctl := overload.New(&overload.Config{
		Name:         "ciruntime-test",
		WindowCycles: 50_000,
		Breaker:      overload.BreakerConfig{MinSamples: 4, ErrFracTrip: 0.5},
		OnStateChange: func(from, to overload.State, at int64) {
			if to == overload.Open {
				trips++
				rt.ResetQuantum(id)
			}
		},
	})
	for i := 0; i < 8; i++ {
		now += 10_000
		ctl.Observe(now, 1_000, true) // every request fails
		ctl.Poll(now, 0)
	}
	if ctl.BreakerState() != overload.Open {
		t.Fatalf("breaker never tripped (state %v)", ctl.BreakerState())
	}
	if trips == 0 {
		t.Fatal("OnStateChange never saw the trip")
	}
	if got := rt.CurrentInterval(id); got != base {
		t.Errorf("interval after trip = %d, want base %d", got, base)
	}
}

// ResetQuantum must be a no-op for ciids without a policy and unknown
// ciids.
func TestResetQuantumNoOpWithoutPolicy(t *testing.T) {
	rt := New()
	id := rt.RegisterCI(5000, func(uint64) {})
	rt.ResetQuantum(id)  // no policy
	rt.ResetQuantum(999) // unknown
	if got := rt.CurrentInterval(id); got != 5000 {
		t.Errorf("interval moved: %d", got)
	}
}
