package shenango

import (
	"testing"

	"repro/internal/overload"
)

// overloadedConfig offers ~2x the IOKernel's steering capacity
// (2 packets x 600 cycles per request) with the admission plane on.
func overloadedConfig() Config {
	return Config{
		Kind: CIHosted, OfferedLoad: 4.3e6, Seed: 7,
		DurationCycles: 26_000_000,
		Overload:       &overload.Config{DeadlineCycles: 200_000},
	}
}

// The plane's accounting invariants hold at 2x load (RunChecked runs
// the oracle), load is actually shed, and brownout parks the miner.
func TestOverloadShedsAtTwiceCapacity(t *testing.T) {
	r, err := RunChecked(overloadedConfig())
	if err != nil {
		t.Fatalf("RunChecked (includes overload invariants): %v", err)
	}
	s := r.Overload
	if s.RejectedDoomed == 0 {
		t.Error("deadline propagation never rejected a doomed request")
	}
	if s.RejectFrac() < 0.3 {
		t.Errorf("rejected only %.1f%% at 2x load", 100*s.RejectFrac())
	}
	if s.MaxBrownout < 1 {
		t.Error("never entered brownout at 2x load")
	}
	if r.MinerShedFrac <= 0 {
		t.Error("brownout never parked the miner")
	}
}
