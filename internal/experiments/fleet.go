package experiments

import (
	"fmt"
	"io"
	"strings"

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

// fleetFigure is the sweep, the zone-outage pair (nil when a cell
// failed) and, at -scale > 1, the scale soak.
type fleetFigure struct {
	Base             fleet.Config
	Rows             []fleetRow
	NoOutage, Outage *fleet.Result
	Scale            *fleet.Result
}

func measureFleetFigure(in Inputs) (*fleetFigure, []cellError, error) {
	base, err := in.Flags.FleetConfig(in.Flags.SoakDuration)
	if err != nil {
		return nil, nil, err
	}
	// -quick runs only the soak load: the shape the cmd/ciexp output
	// goldens pin.
	loads := pick(in, fleetLoadFactors, []float64{fleetSoakLoad})
	return measured(measureFleet(in.Eng, base, loads, int64(in.Flags.Scale)))
}

// measureFleet runs the sweep over loads, the zone-outage pair — the
// no-outage and zone-0-crash-looping soaks at the soak load, 4 zones,
// migration on, each cell checked by the conservation oracle — and at
// scale > 1 the `-scale`-keyed 64-replica soak.
func measureFleet(eng *engine.Engine, base fleet.Config, loads []float64, scale int64) (*fleetFigure, []cellError) {
	rows, errs := measureFleetRamp(eng, base, loads)
	f := &fleetFigure{Base: base, Rows: rows}
	label := func(i int) string { return fmt.Sprintf("fleet/zone/outage=%t", i == 1) }
	zone, zoneErrs := sweep(eng, 2, label, func(i int) (*fleet.Result, error) {
		res := fleet.Run(FleetZoneConfig(base, i == 1), nil)
		return res, res.Conservation()
	})
	if len(zoneErrs) == 0 {
		f.NoOutage, f.Outage = zone[0], zone[1]
	}
	if scale > 1 {
		f.Scale = fleet.Run(FleetScaleConfig(base.Seed, scale), nil)
	}
	return f, append(errs, zoneErrs...)
}

// gateFleet judges the soak-load crash/no-crash pair, every row's retry
// amplification, the zone-outage pair, and the scale soak's
// conservation identities and (at scale >= 42) 10M-request volume.
func gateFleet(f *fleetFigure, in Inputs) []string {
	v := soakPairViolations(f.Rows, float64(fleet.DefaultDeadlineCycles)/fleet.CyclesPerUs)
	v = append(v, zonePairViolations(f.NoOutage, f.Outage)...)
	if f.Scale == nil {
		return v
	}
	if err := f.Scale.Conservation(); err != nil {
		v = append(v, fmt.Sprintf("fleet scale: %v", err))
	}
	if scale := in.Flags.Scale; f.Scale.Injected < 10_000_000 && scale >= fleetScaleTarget {
		v = append(v, fmt.Sprintf("fleet scale: only %d requests injected at scale %d (want >= 10M)", f.Scale.Injected, scale))
	}
	return v
}

// soakPairViolations judges the crash/no-crash pair at the soak load:
// the crash plan must have played out, goodput must hold the floor,
// every row's retry amplification the budget bound, and the
// well-behaved tenants their p99.9 SLO (deadlineUs, the per-request
// deadline).
func soakPairViolations(rows []fleetRow, deadlineUs float64) []string {
	pair := map[bool]*fleet.Result{} // by crash plan
	for _, r := range rows {
		if r.Load == fleetSoakLoad {
			pair[r.Crash] = r.Res
		}
	}
	noCrash, crash := pair[false], pair[true]
	if noCrash == nil || crash == nil {
		return []string{"soak pair incomplete (a cell failed)"}
	}
	var v []string
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
	for _, r := range rows {
		if amp := r.Res.Amplification(); amp > fleetAmpCeiling+1e-9 {
			v = append(v, fmt.Sprintf("retry amplification %.3f exceeds %.2f (crash=%t)",
				amp, fleetAmpCeiling, r.Res.Crashes > 0))
		}
	}
	for i, ts := range crash.PerTenant {
		if !ts.Misbehaving && ts.P999Us > deadlineUs {
			v = append(v, fmt.Sprintf("well-behaved tenant %d p99.9 %.0fµs exceeds the %.0fµs deadline SLO",
				i, ts.P999Us, deadlineUs))
		}
	}
	return v
}

// zonePairViolations judges the zone-outage pair: the outage must have
// happened and been drained by migration with nothing stranded, and
// the cluster must ride through it — goodput within the zone floor of
// the no-outage run, amplification inside the budget bound.
func zonePairViolations(noOutage, outage *fleet.Result) []string {
	if noOutage == nil || outage == nil {
		return []string{"zone pair incomplete (a cell failed)"}
	}
	var v []string
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

// fleetTable lays the sweep out, then the zone-outage pair and, when
// every guard holds, the scale soak.
func fleetTable(f *fleetFigure, in Inputs) *table {
	b := f.Base
	t := &table{
		title: []string{fmt.Sprintf("Fleet soak (seed %d): %d replicas (%s), %d tenants, capacity %.2f M req/s",
			b.Seed, b.Replicas, b.Policy, b.Tenants, fleet.CapacityRPS(b.Replicas)/1e6)},
		cols: []column{{"load", "%-6s", "%-6.1f"}, {"crash", "%-6s", "%-6t"}, {"goodput", "%9s", "%8.2fM"},
			{"p50(µs)", "%8s", "%8.1f"}, {"p99.9(µs)", "%9s", "%9.1f"}, {"max(µs)", "%10s", "%10.1f"},
			{"retries", "%8s", "%8d"}, {"hedges", "%8s", "%8d"}, {"amp", "%6s", "%6.3f"},
			{"eject", "%6s", "%6d"}, {"failed", "%7s", "%7d"}},
		sep:       " ",
		violation: "resilience violation: ",
		failures:  "resilience violation(s)",
	}
	for _, r := range f.Rows {
		res := r.Res
		t.rows = append(t.rows, []any{r.Load, r.Crash, res.GoodputRPS / 1e6, res.P50Us, res.P999Us, res.MaxUs,
			res.Retries, res.Hedges, res.Amplification(), res.Ejections, res.AttemptFailed})
	}
	if no, out := f.NoOutage, f.Outage; no != nil && out != nil {
		t.notes = []string{fmt.Sprintf("zone outage (%d zones, zone 0 crash-looping, migration on):", fleetZoneCount)}
		for i, res := range []*fleet.Result{no, out} {
			t.notes = append(t.notes, fmt.Sprintf("  %-10s goodput %.2fM rps, p99.9 %.1fµs, zone crashes %d, migrated %d (failed %d), amp %.3f",
				[]string{"no-outage", "outage"}[i], res.GoodputRPS/1e6, res.P999Us, res.ZoneCrashes,
				res.Migrated, res.MigrationFailed, res.Amplification()))
		}
		t.notes = append(t.notes, fmt.Sprintf("  goodput under outage: %.1f%% of no-outage (floor %.0f%%)",
			100*out.GoodputRPS/no.GoodputRPS, 100*fleetZoneGoodputFloor))
	}
	if s := f.Scale; s != nil {
		cfg := FleetScaleConfig(b.Seed, int64(in.Flags.Scale))
		t.closing = []string{
			fmt.Sprintf("fleet scale soak (seed %d, scale %d): %d replicas / %d zones, %.0f ms horizon",
				b.Seed, in.Flags.Scale, cfg.Replicas, cfg.Zones, float64(cfg.HorizonCycles)/2.6e6),
			fmt.Sprintf("  injected %.2fM requests, goodput %.2fM rps, migrated %d (failed %d), zone outages %d",
				float64(s.Injected)/1e6, s.GoodputRPS/1e6, s.Migrated, s.MigrationFailed, s.ZoneCrashes),
		}
	}
	return t
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
	zones = max(zones, 1)
	// windows lists a crash stream's [onset–recovery] windows inside the
	// horizon, or that there are none.
	windows := func(next func() (gap, down int64, ok bool), none string) string {
		var b strings.Builder
		for t := int64(0); ; {
			gap, down, ok := next()
			if !ok || t+gap >= horizonCycles {
				break
			}
			t += gap
			fmt.Fprintf(&b, " [%.2f–%.2f ms]", float64(t)/2.6e6, float64(t+down)/2.6e6)
			t += down
		}
		if b.Len() == 0 {
			return " (no " + none + " inside the horizon)"
		}
		return b.String()
	}
	plan := fleetCrashPlan(seed)
	fmt.Fprintf(w, "fleet crash plan (seed %d, horizon %.1f ms): mean gap %.1f ms, down %.1f ms, migration %s\n",
		seed, float64(horizonCycles)/2.6e6,
		float64(plan.CrashMeanGapCycles)/2.6e6, float64(plan.CrashDownCycles)/2.6e6,
		map[bool]string{true: "on (queued work drains at crash)", false: "off (queued work dies into retries)"}[migrate])
	for i := 0; i < replicas; i++ {
		inj := faults.New(plan, fmt.Sprintf("fleet/replica%d", i))
		fmt.Fprintf(w, "replica %d (zone %d):%s\n", i, i%zones, windows(inj.NextCrash, "crashes"))
	}
	if zones == 1 {
		return
	}
	zplan := fleetZonePlan(seed)
	fmt.Fprintf(w, "zone outage plan (%d zones, zone 0 only): mean gap %.1f ms, down %.1f ms\n",
		zones, float64(zplan.ZoneCrashMeanGapCycles)/2.6e6, float64(zplan.ZoneCrashDownCycles)/2.6e6)
	members := ""
	for i := 0; i < replicas; i += zones {
		members += fmt.Sprintf(" %d", i)
	}
	inj := faults.New(zplan, "fleet/zone0")
	fmt.Fprintf(w, "zone 0 (replicas%s):%s\n", members, windows(inj.NextZoneCrash, "zone outages"))
}
