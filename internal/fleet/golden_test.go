package fleet_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/fleet"
)

var update = flag.Bool("update", false, "rewrite golden files")

type goldenCase struct {
	name string
	cfg  fleet.Config
}

// benchShapes are the benchmark's two soaks exactly as
// benchmark/workloads.go:setupFleet builds them at `-size mini` (one
// eighth of the full horizons).
func benchShapes(seed uint64) (scale, zone fleet.Config) {
	scale = experiments.FleetScaleConfig(seed, 1)
	scale.HorizonCycles = 19_500_000 / 8
	zone = experiments.FleetZoneConfig(fleet.Config{
		Seed: seed, HedgeDelayCycles: 1_300_000, MisbehavingTenant: 0,
		HorizonCycles: 130_000_000 / 8,
	}, true)
	return scale, zone
}

// goldenCases is the matrix fingerprints.golden pins: the benchmark's
// shapes for seeds 1-3, and an overloaded 8-replica/4-zone shape over
// every policy x migration x hedging x fault plan, so each branch of
// the barrier (tenant gate, retries, hedges and their
// cancellations, ejection, half-open probes, drains, zone preference)
// decides something in at least one row.
func goldenCases() []goldenCase {
	var cases []goldenCase
	for seed := uint64(1); seed <= 3; seed++ {
		scale, zone := benchShapes(seed)
		cases = append(cases,
			goldenCase{fmt.Sprintf("bench/scale/seed=%d", seed), scale},
			goldenCase{fmt.Sprintf("bench/zone/seed=%d", seed), zone})
	}
	plans := []struct {
		name string
		plan *faults.Plan
	}{
		{"none", nil},
		{"replica", &faults.Plan{
			Seed:                  5,
			CrashMeanGapCycles:    4_000_000,
			CrashDownCycles:       1_300_000,
			GraySlowMeanGapCycles: 5_000_000,
			GraySlowCycles:        2_600_000,
			GraySlowFactor:        8,
		}},
		{"zone", &faults.Plan{
			Seed:                   5,
			ZoneCrashMeanGapCycles: 5_000_000,
			ZoneCrashDownCycles:    1_300_000,
			ZoneGrayMeanGapCycles:  6_000_000,
			ZoneGrayCycles:         2_600_000,
			ZoneGrayFactor:         8,
		}},
	}
	for _, pol := range []fleet.Policy{fleet.RoundRobin, fleet.LeastLoaded, fleet.P2CDeadline} {
		for _, migrate := range []bool{false, true} {
			for _, hedge := range []bool{false, true} {
				for _, p := range plans {
					cfg := fleet.Config{
						Replicas:          8,
						Tenants:           4,
						Zones:             4,
						Policy:            pol,
						Seed:              5,
						HorizonCycles:     13_000_000,
						LoadFactor:        1.1,
						Migrate:           migrate,
						Faults:            p.plan,
						CrashReplicas:     3,
						OutageZones:       2,
						MisbehavingTenant: 1,
					}
					if hedge {
						cfg.HedgeDelayCycles = 260_000
					}
					cases = append(cases, goldenCase{
						fmt.Sprintf("8x4/%s/migrate=%t/hedge=%t/plan=%s", pol, migrate, hedge, p.name), cfg})
				}
			}
		}
	}
	return cases
}

func goldenLine(name string, res *fleet.Result) string {
	return fmt.Sprintf("%s fingerprint=%016x attempts=%d served=%d migrated=%d\n",
		name, res.Fingerprint(), res.Attempts, res.Served, res.Migrated)
}

// TestFingerprintsGolden is the gate a speed-only change to the fleet
// lives by: every row's full Result (through Fingerprint, which prints
// the struct) must be byte-identical to the committed file. `go test
// ./internal/fleet -run TestFingerprintsGolden -update` regenerates it.
func TestFingerprintsGolden(t *testing.T) {
	const path = "testdata/fingerprints.golden"
	var sb strings.Builder
	for _, tc := range goldenCases() {
		res := fleet.Run(tc.cfg, nil)
		if err := res.Conservation(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		sb.WriteString(goldenLine(tc.name, res))
	}
	if *update {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update on a commit whose results are the contract)", err)
	}
	if got := sb.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Errorf("row %d:\n got  %s\n want %s", i, gl[i], wl[i])
			}
		}
		t.Fatalf("fingerprints diverge from %s (%d rows, want %d)", path, len(gl)-1, len(wl)-1)
	}
}
