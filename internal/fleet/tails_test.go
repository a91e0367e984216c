package fleet_test

import (
	"testing"

	"repro/internal/fleet"
)

// TestTailsMatchReference runs whole soaks — the benchmark's mini
// shapes for seeds 1-3, and short many-tenant runs in which some
// tenants are never served and others once — and requires every tail
// field of the Result to be what the old result pass (TailsRef: sort,
// merge, PercentileSorted) computes from the same latency lists.
func TestTailsMatchReference(t *testing.T) {
	var cases []fleet.Config
	for seed := uint64(1); seed <= 3; seed++ {
		scale, zone := benchShapes(seed)
		cases = append(cases, scale, zone,
			fleet.Config{Replicas: 2, Tenants: 16, Seed: seed, HorizonCycles: 2 * fleet.EpochCycles})
	}
	var unserved, singleton int
	for k, cfg := range cases {
		got, lats := fleet.RunLatencies(cfg)
		want := fleet.TailsRef(lats)
		for _, l := range lats {
			switch len(l) {
			case 0:
				unserved++
			case 1:
				singleton++
			}
		}
		if got.P50Us != want.P50Us || got.P99Us != want.P99Us || got.P999Us != want.P999Us || got.MaxUs != want.MaxUs {
			t.Errorf("case %d: tails p50/p99/p99.9/max = %v/%v/%v/%v, reference %v/%v/%v/%v", k,
				got.P50Us, got.P99Us, got.P999Us, got.MaxUs, want.P50Us, want.P99Us, want.P999Us, want.MaxUs)
		}
		for i, w := range want.PerTenant {
			if g := got.PerTenant[i]; g.P99Us != w.P99Us || g.P999Us != w.P999Us {
				t.Errorf("case %d tenant %d: p99/p99.9 = %v/%v, reference %v/%v", k, i, g.P99Us, g.P999Us, w.P99Us, w.P999Us)
			}
		}
	}
	if unserved == 0 || singleton == 0 {
		t.Errorf("%d never-served and %d once-served tenant lists; the short runs no longer cover them", unserved, singleton)
	}
}
