package experiments

import (
	"fmt"
	"io"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/fleet"
)

// This file is the fleet crash-soak experiment: N CI-polled replicas
// behind the health-checked balancer, swept across offered-load
// factors with and without a mid-soak crash plan on replica 0. The
// headline row is the overloaded soak point (1.2x capacity) with one
// replica crashing repeatedly and tenant 0 misbehaving: the resilience
// guards assert that goodput degrades gracefully (>= 80% of the
// no-crash run), retry amplification stays inside the budget bound
// (<= 1.15x), well-behaved tenants keep their p99.9 SLO, and the
// conservation oracle balances exactly.

// fleetLoadFactors is the standard sweep, in multiples of the
// cluster's analytic capacity.
var fleetLoadFactors = []float64{0.6, 0.9, 1.2}

// fleetSoakLoad is the overloaded soak point whose crash/no-crash pair
// the resilience guards are checked against.
const fleetSoakLoad = 1.2

// Fleet resilience guards (the acceptance bar of the crash-soak
// headline).
const (
	// fleetGoodputFloor is the minimum crash-run goodput as a fraction
	// of the no-crash run at the same load.
	fleetGoodputFloor = 0.80
	// fleetAmpCeiling bounds retry amplification (attempts/injected);
	// the retry + hedge budgets guarantee it by construction.
	fleetAmpCeiling = 1.15
	// fleetZoneGoodputFloor is the zone-outage bar: with one of four
	// zones crash-looping and migration draining its queues, goodput
	// must stay within 90% of the no-outage run.
	fleetZoneGoodputFloor = 0.90
	// fleetZoneCount is the standard failure-domain count.
	fleetZoneCount = 4
)

// fleetCrashPlan is the standard mid-soak crash plan: exponentially
// spaced whole-replica crashes (mean gap ~2.3 ms) with a 1 ms cold
// restart, applied to replica 0 only.
func fleetCrashPlan(seed uint64) *faults.Plan {
	return &faults.Plan{
		Seed:               seed,
		CrashMeanGapCycles: 6_000_000,
		CrashDownCycles:    2_600_000,
	}
}

// fleetZonePlan is the standard correlated-outage plan: one zone
// (zone 0) crash-loops with exponentially spaced whole-zone outages
// (mean gap ~5 ms) and a 0.5 ms correlated restart — roughly a 20%
// outage duty cycle on a quarter of the cluster at the standard seed
// (the breaker's recovery lag stretches each window's effective
// downtime past the raw schedule).
func fleetZonePlan(seed uint64) *faults.Plan {
	return &faults.Plan{
		Seed:                   seed,
		ZoneCrashMeanGapCycles: 13_000_000,
		ZoneCrashDownCycles:    1_300_000,
	}
}

// FleetZoneConfig derives the zone-outage soak from a base config: the
// canonical cluster shape (two replicas per zone across four zones —
// the headline is a fixed experiment, so it does not inherit
// -replicas) at the overloaded soak point with migration on; the
// outage cell applies fleetZonePlan to zone 0 only.
func FleetZoneConfig(base fleet.Config, outage bool) fleet.Config {
	cfg := base
	cfg.Replicas = 2 * fleetZoneCount
	cfg.LoadFactor = fleetSoakLoad
	cfg.Zones = fleetZoneCount
	cfg.Migrate = true
	cfg.Faults = nil
	cfg.CrashReplicas = 0
	if outage {
		cfg.Faults = fleetZonePlan(base.Seed)
		cfg.OutageZones = 1
	}
	return cfg
}

// fleetRow is one (load factor, crash plan) cell of the sweep.
type fleetRow struct {
	// Load is the offered load in multiples of cluster capacity.
	Load float64
	// Crash reports whether the crash plan was applied to replica 0.
	Crash bool
	// Res is the full fleet accounting.
	Res *fleet.Result
}

// measureFleetRamp sweeps the fleet across loads × {no-crash, crash}.
// One run is one engine cell; every cell's conservation oracle is
// checked before the row is returned. Rows come back ordered by
// (load, no-crash-first).
func measureFleetRamp(eng *engine.Engine, base fleet.Config, loads []float64) ([]fleetRow, []cellError) {
	if len(loads) == 0 {
		loads = fleetLoadFactors
	}
	label := func(i int) string { return fmt.Sprintf("fleet/%.1fx/crash=%t", loads[i/2], i%2 == 1) }
	return sweep(eng, 2*len(loads), label, func(i int) (fleetRow, error) {
		cfg := base
		cfg.LoadFactor = loads[i/2]
		crash := i%2 == 1
		if crash {
			cfg.Faults = fleetCrashPlan(base.Seed)
			cfg.CrashReplicas = 1
		}
		res := fleet.Run(cfg, nil)
		if err := res.Conservation(); err != nil {
			return fleetRow{}, err
		}
		return fleetRow{Load: loads[i/2], Crash: crash, Res: res}, nil
	})
}

// measureFleetZone runs the zone-outage pair: the no-outage and
// zone-0-crash-looping soaks at the overloaded load point, both with
// 4 zones and migration on. Each cell's conservation oracle (which
// includes the migration identities) is checked before returning; a
// failed cell leaves both results nil.
func measureFleetZone(eng *engine.Engine, base fleet.Config) (noOutage, outage *fleet.Result, cellErrs []cellError) {
	label := func(i int) string { return fmt.Sprintf("fleet/zone/outage=%t", i == 1) }
	cells, cellErrs := sweep(eng, 2, label, func(i int) (*fleet.Result, error) {
		res := fleet.Run(FleetZoneConfig(base, i == 1), nil)
		return res, res.Conservation()
	})
	if len(cellErrs) > 0 {
		return nil, nil, cellErrs
	}
	return cells[0], cells[1], nil
}

// checkFleetZone judges the zone-outage pair: the outage must have
// happened and been drained by migration with nothing stranded, and
// the cluster must ride through it — goodput within the zone floor of
// the no-outage run, amplification inside the budget bound.
func checkFleetZone(noOutage, outage *fleet.Result) []string {
	var v []string
	if noOutage == nil || outage == nil {
		return []string{"zone pair incomplete (a cell failed)"}
	}
	if outage.ZoneCrashes == 0 {
		v = append(v, "zone plan injected no zone outages")
	}
	if outage.Migrated == 0 {
		v = append(v, "zone outages migrated no queued work")
	}
	var stranded int64
	for _, st := range outage.PerReplica {
		stranded += st.StrandedQueued
	}
	if stranded != 0 {
		v = append(v, fmt.Sprintf("migration stranded %d queued attempts", stranded))
	}
	if ratio := outage.GoodputRPS / noOutage.GoodputRPS; ratio < fleetZoneGoodputFloor {
		v = append(v, fmt.Sprintf("zone-outage goodput %.1f%% of no-outage run (floor %.0f%%)",
			100*ratio, 100*fleetZoneGoodputFloor))
	}
	if amp := outage.Amplification(); amp > fleetAmpCeiling+1e-9 {
		v = append(v, fmt.Sprintf("retry amplification %.3f exceeds %.2f under zone outage",
			amp, fleetAmpCeiling))
	}
	return v
}

// FleetScaleConfig is the `-scale`-keyed large-cluster soak: 64
// replicas in 4 zones at capacity load with migration on and zone 0
// crash-looping. Scale multiplies the 26M-cycle (10 ms) base horizon;
// the canonical scale 42 injects ~14.2M requests over ~420 ms of
// virtual time.
func FleetScaleConfig(seed uint64, scale int64) fleet.Config {
	return fleet.Config{
		Replicas:      64,
		Tenants:       8,
		Zones:         fleetZoneCount,
		Policy:        fleet.P2CDeadline,
		Seed:          seed,
		HorizonCycles: scale * 26_000_000,
		LoadFactor:    1.0,
		Migrate:       true,
		Faults:        fleetZonePlan(seed),
		OutageZones:   1,
	}
}

// fleetScaleTarget is the canonical -scale for the 10M-request soak.
const fleetScaleTarget = 42

// printFleetScale runs the scale soak and proves the conservation
// identities intact and the injection volume at the advertised scale.
// The scale proof of the migration + zone layer.
func printFleetScale(w io.Writer, seed uint64, scale int64) error {
	cfg := FleetScaleConfig(seed, scale)
	fmt.Fprintf(w, "fleet scale soak (seed %d, scale %d): %d replicas / %d zones, %.0f ms horizon\n",
		seed, scale, cfg.Replicas, cfg.Zones, float64(cfg.HorizonCycles)/2.6e6)
	res := fleet.Run(cfg, nil)
	if err := res.Conservation(); err != nil {
		return fmt.Errorf("fleet scale: %w", err)
	}
	fmt.Fprintf(w, "  injected %.2fM requests, goodput %.2fM rps, migrated %d (failed %d), zone outages %d\n",
		float64(res.Injected)/1e6, res.GoodputRPS/1e6,
		res.Migrated, res.MigrationFailed, res.ZoneCrashes)
	if res.Injected < 10_000_000 && scale >= fleetScaleTarget {
		return fmt.Errorf("fleet scale: only %d requests injected at scale %d (want >= 10M)", res.Injected, scale)
	}
	return nil
}

// checkFleetSoak judges the crash/no-crash pair at the soak load
// against the resilience guards, returning one string per violation.
// deadlineUs is the per-request deadline (the well-behaved tenants'
// p99.9 SLO bound).
func checkFleetSoak(noCrash, crash *fleet.Result, deadlineUs float64) []string {
	var v []string
	if noCrash == nil || crash == nil {
		return []string{"soak pair incomplete (a cell failed)"}
	}
	if crash.Crashes == 0 {
		v = append(v, "crash plan injected no crashes")
	}
	if crash.Ejections == 0 {
		v = append(v, "balancer never ejected the crashing replica")
	}
	if crash.Readmissions == 0 {
		v = append(v, "balancer never re-admitted the recovered replica")
	}
	if ratio := crash.GoodputRPS / noCrash.GoodputRPS; ratio < fleetGoodputFloor {
		v = append(v, fmt.Sprintf("crash goodput %.1f%% of no-crash run (floor %.0f%%)",
			100*ratio, 100*fleetGoodputFloor))
	}
	for _, r := range []*fleet.Result{noCrash, crash} {
		if amp := r.Amplification(); amp > fleetAmpCeiling+1e-9 {
			v = append(v, fmt.Sprintf("retry amplification %.3f exceeds %.2f (crash=%t)",
				amp, fleetAmpCeiling, r.Crashes > 0))
		}
	}
	for i, ts := range crash.PerTenant {
		if ts.Misbehaving {
			continue
		}
		if ts.P999Us > deadlineUs {
			v = append(v, fmt.Sprintf("well-behaved tenant %d p99.9 %.0fµs exceeds the %.0fµs deadline SLO",
				i, ts.P999Us, deadlineUs))
		}
	}
	return v
}

// printFleet runs the sweep and renders the figure table, then judges
// the soak-load crash/no-crash pair against the resilience guards, the
// zone-outage pair (1-of-4 zones crash-looping with migration on)
// against the zone guards, and — when scale > 1 — the `-scale`-keyed
// 64-replica soak. Violations and failed cells return an error so
// `ciexp fleet` exits non-zero. With quick, only the soak load runs
// (the shape the cmd/ciexp output goldens pin).
func printFleet(w io.Writer, eng *engine.Engine, base fleet.Config, quick bool, scale int64) error {
	loads := fleetLoadFactors
	if quick {
		loads = []float64{fleetSoakLoad}
	}
	fmt.Fprintf(w, "Fleet soak (seed %d): %d replicas (%s), %d tenants, capacity %.2f M req/s\n",
		base.Seed, base.Replicas, base.Policy, base.Tenants, fleet.CapacityRPS(base.Replicas)/1e6)
	fmt.Fprintf(w, "%-6s %-6s %9s %8s %9s %10s %8s %8s %6s %6s %7s\n",
		"load", "crash", "goodput", "p50(µs)", "p99.9(µs)", "max(µs)", "retries", "hedges", "amp", "eject", "failed")
	rows, cellErrs := measureFleetRamp(eng, base, loads)
	var noCrash, crash *fleet.Result
	for _, r := range rows {
		res := r.Res
		fmt.Fprintf(w, "%-6.1f %-6t %8.2fM %8.1f %9.1f %10.1f %8d %8d %6.3f %6d %7d\n",
			r.Load, r.Crash, res.GoodputRPS/1e6, res.P50Us, res.P999Us, res.MaxUs,
			res.Retries, res.Hedges, res.Amplification(), res.Ejections, res.AttemptFailed)
		if r.Load == fleetSoakLoad {
			if r.Crash {
				crash = res
			} else {
				noCrash = res
			}
		}
	}
	violations := checkFleetSoak(noCrash, crash, float64(fleet.DefaultDeadlineCycles)/fleet.CyclesPerUs)
	// Zone-outage headline: 1-of-4 zones crash-looping at the soak
	// load with migration draining its queues.
	noOutage, outage, zoneErrs := measureFleetZone(eng, base)
	cellErrs = append(cellErrs, zoneErrs...)
	if noOutage != nil && outage != nil {
		fmt.Fprintf(w, "zone outage (%d zones, zone 0 crash-looping, migration on):\n", fleetZoneCount)
		for _, p := range []struct {
			name string
			res  *fleet.Result
		}{{"no-outage", noOutage}, {"outage", outage}} {
			fmt.Fprintf(w, "  %-10s goodput %.2fM rps, p99.9 %.1fµs, zone crashes %d, migrated %d (failed %d), amp %.3f\n",
				p.name, p.res.GoodputRPS/1e6, p.res.P999Us, p.res.ZoneCrashes,
				p.res.Migrated, p.res.MigrationFailed, p.res.Amplification())
		}
		fmt.Fprintf(w, "  goodput under outage: %.1f%% of no-outage (floor %.0f%%)\n",
			100*outage.GoodputRPS/noOutage.GoodputRPS, 100*fleetZoneGoodputFloor)
	}
	violations = append(violations, checkFleetZone(noOutage, outage)...)

	for _, v := range violations {
		fmt.Fprintf(w, "resilience violation: %s\n", v)
	}
	if err := renderCellErrors(w, cellErrs); err != nil {
		return err
	}
	if len(violations) > 0 {
		return fmt.Errorf("fleet: %d resilience violation(s)", len(violations))
	}
	if scale > 1 {
		return printFleetScale(w, base.Seed, scale)
	}
	return nil
}

// PrintFleetPlan renders the seeded fault schedule `ciexp fleet`'s
// crash cells will experience: per replica, every crash window
// (onset, recovery) inside the horizon, drawn exactly as the replicas
// draw them (next onset is spaced from recovery, not from the previous
// onset), each replica labeled with its failure-domain zone and
// whether a migration drain would save its queue. The crash cells
// apply the plan to replica 0 only; the other replicas' streams are
// shown for exploration with -replicas > 1 sweeps. With zones > 1 the
// zone-outage schedules (fleetZonePlan, zone 0 only — the `ciexp
// fleet` zone cell) are shown too. The debugging window into the
// fleet fault plan (ciexp fleetplan).
func PrintFleetPlan(w io.Writer, seed uint64, replicas, zones int, horizonCycles int64, migrate bool) {
	if zones <= 0 {
		zones = 1
	}
	plan := fleetCrashPlan(seed)
	fmt.Fprintf(w, "fleet crash plan (seed %d, horizon %.1f ms): mean gap %.1f ms, down %.1f ms, migration %s\n",
		seed, float64(horizonCycles)/2.6e6,
		float64(plan.CrashMeanGapCycles)/2.6e6, float64(plan.CrashDownCycles)/2.6e6,
		map[bool]string{true: "on (queued work drains at crash)", false: "off (queued work dies into retries)"}[migrate])
	for i := 0; i < replicas; i++ {
		inj := faults.New(plan, fmt.Sprintf("fleet/replica%d", i))
		fmt.Fprintf(w, "replica %d (zone %d):", i, i%zones)
		t, n := int64(0), 0
		for {
			gap, down, ok := inj.NextCrash()
			if !ok || t+gap >= horizonCycles {
				break
			}
			t += gap
			fmt.Fprintf(w, " [%.2f–%.2f ms]", float64(t)/2.6e6, float64(t+down)/2.6e6)
			t += down
			n++
		}
		if n == 0 {
			fmt.Fprintf(w, " (no crashes inside the horizon)")
		}
		fmt.Fprintln(w)
	}
	if zones <= 1 {
		return
	}
	zplan := fleetZonePlan(seed)
	fmt.Fprintf(w, "zone outage plan (%d zones, zone 0 only): mean gap %.1f ms, down %.1f ms\n",
		zones, float64(zplan.ZoneCrashMeanGapCycles)/2.6e6, float64(zplan.ZoneCrashDownCycles)/2.6e6)
	inj := faults.New(zplan, "fleet/zone0")
	fmt.Fprintf(w, "zone 0 (replicas")
	for i := 0; i < replicas; i++ {
		if i%zones == 0 {
			fmt.Fprintf(w, " %d", i)
		}
	}
	fmt.Fprintf(w, "):")
	t, n := int64(0), 0
	for {
		gap, down, ok := inj.NextZoneCrash()
		if !ok || t+gap >= horizonCycles {
			break
		}
		t += gap
		fmt.Fprintf(w, " [%.2f–%.2f ms]", float64(t)/2.6e6, float64(t+down)/2.6e6)
		t += down
		n++
	}
	if n == 0 {
		fmt.Fprintf(w, " (no zone outages inside the horizon)")
	}
	fmt.Fprintln(w)
}
