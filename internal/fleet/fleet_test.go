package fleet

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/overload"
	"repro/internal/sim"
)

// testConfig is a moderately loaded cluster with every resilience
// mechanism exercised: crashes and gray failures on the first two
// replicas, hedging, and a misbehaving tenant.
func testConfig() Config {
	return Config{
		Replicas:      4,
		Tenants:       4,
		Policy:        P2CDeadline,
		Seed:          42,
		HorizonCycles: 26_000_000, // 10 ms
		LoadFactor:    0.8,
		Faults: &faults.Plan{
			Seed:                  42,
			CrashMeanGapCycles:    8_000_000,
			CrashDownCycles:       1_300_000,
			GraySlowMeanGapCycles: 10_000_000,
			GraySlowCycles:        2_600_000,
			GraySlowFactor:        8,
		},
		CrashReplicas:     2,
		HedgeDelayCycles:  260_000,
		MisbehavingTenant: 1,
	}
}

func TestFleetConservation(t *testing.T) {
	res := Run(testConfig(), nil)
	if err := res.Conservation(); err != nil {
		t.Fatal(err)
	}
	if res.Injected < 5_000 {
		t.Fatalf("only %d requests injected; workload generator broken", res.Injected)
	}
	if res.Served == 0 {
		t.Fatal("no requests served")
	}
	if res.Crashes == 0 {
		t.Fatal("crash plan injected no crashes")
	}
	if res.AttemptFailed == 0 {
		t.Fatal("crashes killed no attempts; crash accounting is not being exercised")
	}
	if res.Hedges == 0 {
		t.Fatal("no hedges sent")
	}
	if res.Retries == 0 {
		t.Fatal("no retries sent")
	}
	if amp := res.Amplification(); amp > 1.15+1e-9 {
		t.Fatalf("retry amplification %.3f exceeds the 1.15 budget bound", amp)
	}
}

// zoneConfig composes every failure class at once: independent
// per-replica crashes, correlated whole-zone crash and gray windows
// over 4 zones, hedging, and migration.
func zoneConfig() Config {
	return Config{
		Replicas:      8,
		Tenants:       4,
		Zones:         4,
		Migrate:       true,
		Policy:        P2CDeadline,
		Seed:          42,
		HorizonCycles: 26_000_000,
		LoadFactor:    0.9,
		Faults: &faults.Plan{
			Seed:                   42,
			CrashMeanGapCycles:     9_000_000,
			CrashDownCycles:        1_300_000,
			ZoneCrashMeanGapCycles: 10_000_000,
			ZoneCrashDownCycles:    2_600_000,
			ZoneGrayMeanGapCycles:  12_000_000,
			ZoneGrayCycles:         2_600_000,
			ZoneGrayFactor:         8,
		},
		CrashReplicas:    2,
		HedgeDelayCycles: 260_000,
	}
}

func TestFleetDeterministicAcrossRuns(t *testing.T) {
	cfg := testConfig()
	a := Run(cfg, nil)
	b := Run(cfg, nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identically-seeded runs diverge")
	}
	cfg.Seed = 43
	if c := Run(cfg, nil); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical runs")
	}
}

// Crashing one replica mid-soak must degrade goodput gracefully: the
// balancer ejects the dead replica, retries absorb the killed
// attempts, and cluster goodput stays within 80% of the no-crash run
// while retry amplification stays inside the budget bound.
func TestFleetCrashFailoverGoodput(t *testing.T) {
	base := Config{
		Replicas:      4,
		Tenants:       4,
		Policy:        P2CDeadline,
		Seed:          7,
		HorizonCycles: 26_000_000,
		LoadFactor:    1.2,
	}
	noCrash := Run(base, nil)
	if err := noCrash.Conservation(); err != nil {
		t.Fatal(err)
	}

	crashed := base
	crashed.Faults = &faults.Plan{
		Seed:               7,
		CrashMeanGapCycles: 6_000_000,
		CrashDownCycles:    2_600_000,
	}
	crashed.CrashReplicas = 1
	res := Run(crashed, nil)
	if err := res.Conservation(); err != nil {
		t.Fatal(err)
	}
	if res.Crashes == 0 {
		t.Fatal("no crashes occurred")
	}
	if res.Ejections == 0 {
		t.Fatal("balancer never ejected the crashing replica")
	}
	if res.Readmissions == 0 {
		t.Fatal("balancer never re-admitted the recovered replica")
	}
	if ratio := res.GoodputRPS / noCrash.GoodputRPS; ratio < 0.80 {
		t.Fatalf("crash-soak goodput is %.1f%% of the no-crash run (want >= 80%%): %f vs %f rps",
			100*ratio, res.GoodputRPS, noCrash.GoodputRPS)
	}
	if amp := res.Amplification(); amp > 1.15+1e-9 {
		t.Fatalf("retry amplification %.3f exceeds 1.15", amp)
	}
}

// One tenant offering 4x its fair share must not wreck the others:
// the per-tenant rate gates shed its excess at the door, so
// well-behaved tenants keep their served fraction and tail latency.
func TestFleetTenantIsolation(t *testing.T) {
	cfg := Config{
		Replicas:          4,
		Tenants:           4,
		Policy:            P2CDeadline,
		Seed:              11,
		HorizonCycles:     26_000_000,
		LoadFactor:        0.9,
		MisbehavingTenant: 0,
	}
	res := Run(cfg, nil)
	if err := res.Conservation(); err != nil {
		t.Fatal(err)
	}
	bad := res.PerTenant[0]
	if !bad.Misbehaving {
		t.Fatal("tenant 0 not marked misbehaving")
	}
	if bad.Rejected == 0 {
		t.Fatal("misbehaving tenant's excess was never shed at its rate gate")
	}
	deadlineUs := float64(DefaultDeadlineCycles) / CyclesPerUs
	for i := 1; i < cfg.Tenants; i++ {
		ts := res.PerTenant[i]
		if ts.Injected == 0 {
			t.Fatalf("tenant %d injected nothing", i)
		}
		servedFrac := float64(ts.Served) / float64(ts.Injected)
		if servedFrac < 0.95 {
			t.Errorf("well-behaved tenant %d served only %.1f%% of its requests", i, 100*servedFrac)
		}
		if ts.P999Us > deadlineUs {
			t.Errorf("well-behaved tenant %d p99.9 %.0fµs exceeds the %0.fµs deadline", i, ts.P999Us, deadlineUs)
		}
	}
}

// A gray-slow replica must be caught by the latency outlier detector
// even though it keeps answering probes.
func TestFleetGrayFailureEjection(t *testing.T) {
	cfg := Config{
		Replicas:      4,
		Tenants:       2,
		Policy:        LeastLoaded,
		Seed:          5,
		HorizonCycles: 26_000_000,
		LoadFactor:    0.9,
		Faults: &faults.Plan{
			Seed:                  5,
			GraySlowMeanGapCycles: 5_000_000,
			GraySlowCycles:        5_200_000,
			GraySlowFactor:        16,
		},
		CrashReplicas: 1,
	}
	res := Run(cfg, nil)
	if err := res.Conservation(); err != nil {
		t.Fatal(err)
	}
	if res.GraySlows == 0 {
		t.Fatal("no gray-failure windows occurred")
	}
	if res.Ejections == 0 {
		t.Fatal("gray-slow replica was never ejected despite latency outliers")
	}
}

// Hedges are bounded by the hedge budget, cancel their twin on first
// completion, and duplicates are accounted exactly once.
func TestFleetHedgingAccounting(t *testing.T) {
	cfg := testConfig()
	res := Run(cfg, nil)
	if res.Hedges == 0 {
		t.Fatal("no hedges under a heavy-tailed workload with hedging enabled")
	}
	maxHedges := int64(float64(res.Injected)*hedgeBudgetFrac) + budgetCap
	if res.Hedges > maxHedges {
		t.Fatalf("%d hedges exceed the budget bound %d", res.Hedges, maxHedges)
	}
	if res.HedgeDuplicates > res.Hedges+res.Retries {
		t.Fatalf("%d duplicates exceed %d hedges + %d retries", res.HedgeDuplicates, res.Hedges, res.Retries)
	}
	if res.AttemptCancelled == 0 {
		t.Fatal("first-wins cancellation never removed a queued twin")
	}
}

// Every routing policy must satisfy the oracle and spread load over
// all replicas.
func TestFleetPolicies(t *testing.T) {
	for _, pol := range []Policy{RoundRobin, LeastLoaded, P2CDeadline} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			cfg := Config{
				Replicas:      4,
				Tenants:       2,
				Policy:        pol,
				Seed:          9,
				HorizonCycles: 13_000_000,
				LoadFactor:    0.7,
			}
			res := Run(cfg, nil)
			if err := res.Conservation(); err != nil {
				t.Fatal(err)
			}
			for i, st := range res.PerReplica {
				if st.Admitted == 0 {
					t.Errorf("policy %v starved replica %d", pol, i)
				}
			}
		})
	}
}

// Migration must save queued work from a crash-looping replica: the
// drain re-routes it instead of failing it into the retry path, no
// queued attempt is ever stranded, and total attempt failures drop
// against the no-migration run.
func TestFleetMigrationSavesQueuedWork(t *testing.T) {
	base := Config{
		Replicas:      4,
		Tenants:       4,
		Policy:        P2CDeadline,
		Seed:          7,
		HorizonCycles: 26_000_000,
		LoadFactor:    1.2,
		Faults: &faults.Plan{
			Seed:               7,
			CrashMeanGapCycles: 6_000_000,
			CrashDownCycles:    2_600_000,
		},
		CrashReplicas: 1,
	}
	noMig := Run(base, nil)
	if err := noMig.Conservation(); err != nil {
		t.Fatal(err)
	}
	var stranded int64
	for _, st := range noMig.PerReplica {
		stranded += st.StrandedQueued
	}
	if stranded == 0 {
		t.Fatal("no-migration run stranded no queued attempts; the scenario is not exercising the drain")
	}

	mig := base
	mig.Migrate = true
	res := Run(mig, nil)
	if err := res.Conservation(); err != nil {
		t.Fatal(err)
	}
	if res.Migrated == 0 {
		t.Fatal("migration enabled but no attempt was migrated")
	}
	for i, st := range res.PerReplica {
		if st.StrandedQueued != 0 {
			t.Errorf("replica %d stranded %d queued attempts with migration on", i, st.StrandedQueued)
		}
	}
	if res.AttemptFailed >= noMig.AttemptFailed {
		t.Errorf("migration did not reduce attempt failures: %d with vs %d without",
			res.AttemptFailed, noMig.AttemptFailed)
	}
	if amp := res.Amplification(); amp > 1.15+1e-9 {
		t.Fatalf("retry amplification %.3f exceeds 1.15 with migration on", amp)
	}
}

// Correlated zone outages must hit every replica of a zone in
// lockstep, compose with the independent per-replica classes, and
// keep the conservation oracle green.
func TestFleetZoneOutage(t *testing.T) {
	cfg := zoneConfig()
	res := Run(cfg, nil)
	if err := res.Conservation(); err != nil {
		t.Fatal(err)
	}
	if res.ZoneCrashes == 0 {
		t.Fatal("zone crash plan injected no zone crash windows")
	}
	if res.ZoneGrays == 0 {
		t.Fatal("zone gray plan injected no zone gray windows")
	}
	if res.Crashes == 0 {
		t.Fatal("composing zone classes suppressed the per-replica crash class")
	}
	if res.Migrated == 0 {
		t.Fatal("zone outages migrated no queued work")
	}
	for i, st := range res.PerReplica {
		if want := i % cfg.Zones; st.Zone != want {
			t.Errorf("replica %d labeled zone %d, want %d", i, st.Zone, want)
		}
	}
	// Replicas sharing a zone consume the same pre-drawn window
	// schedule, so their zone-outage counts match exactly.
	for i := cfg.Zones; i < cfg.Replicas; i++ {
		tw := res.PerReplica[i%cfg.Zones]
		if res.PerReplica[i].ZoneCrashes != tw.ZoneCrashes || res.PerReplica[i].ZoneGrays != tw.ZoneGrays {
			t.Errorf("replica %d zone windows (%d crash, %d gray) diverge from zone twin (%d, %d)",
				i, res.PerReplica[i].ZoneCrashes, res.PerReplica[i].ZoneGrays, tw.ZoneCrashes, tw.ZoneGrays)
		}
	}
}

// With a zone mostly down, the balancer must steer traffic to
// surviving zones: the down zone's healthy sibling is deprioritized
// (a half-ejected failure domain is suspect), so it admits far less
// than replicas in untouched zones. Without zone labels the same
// sibling takes a full share.
func TestFleetZonePreference(t *testing.T) {
	base := Config{
		Replicas:      8,
		Tenants:       2,
		Zones:         4,
		Policy:        RoundRobin,
		Seed:          13,
		HorizonCycles: 26_000_000,
		LoadFactor:    0.7,
		Faults: &faults.Plan{
			Seed:               13,
			CrashMeanGapCycles: 1_000_000,
			CrashDownCycles:    5_200_000,
		},
		CrashReplicas: 1, // replica 0 crash-loops; zone 0 = {0, 4}
	}
	res := Run(base, nil)
	if err := res.Conservation(); err != nil {
		t.Fatal(err)
	}
	sibling := res.PerReplica[4].Admitted // healthy, but in the failing zone
	other := res.PerReplica[2].Admitted   // healthy zone
	if sibling*2 >= other {
		t.Errorf("zone preference did not deprioritize the failing zone's sibling: %d admitted vs %d in a healthy zone",
			sibling, other)
	}

	flat := base
	flat.Zones = 1
	res = Run(flat, nil)
	if err := res.Conservation(); err != nil {
		t.Fatal(err)
	}
	sibling = res.PerReplica[4].Admitted
	other = res.PerReplica[2].Admitted
	if sibling*2 < other {
		t.Errorf("without zone labels replica 4 should take a full share: %d admitted vs %d", sibling, other)
	}
}

// P2C candidate sampling must consume exactly two RNG draws per pick
// while two or more backends are routable, zero draws when fewer —
// and never a draw for an ejected (Open) backend — so ejection
// windows cannot shift the seeded stream.
func TestFleetP2CSamplingStream(t *testing.T) {
	trip := func(b *balancer, i int) {
		for k := int64(0); k < 6; k++ {
			b.bk[i].hc.Observe(k*HealthIntervalCycles, 0, true)
			b.bk[i].hc.Poll(k*HealthIntervalCycles, 0)
		}
		if b.bk[i].hc.BreakerState() != overload.Open {
			t.Fatalf("backend %d breaker did not open under forced failures", i)
		}
	}
	pickN := func(b *balancer, n int, wantAvoid int) {
		for k := 0; k < n; k++ {
			a := attempt{exclude: -1, arrival: int64(k), reqArrival: int64(k)}
			r, ok := b.pick(&a)
			if !ok {
				t.Fatal("pick found no backend")
			}
			if wantAvoid >= 0 && r == wantAvoid {
				t.Fatalf("pick chose ejected backend %d", r)
			}
		}
	}
	cfg := Config{Replicas: 4, Policy: P2CDeadline, Seed: 99}.withDefaults()

	b := newBalancer(cfg)
	twin := sim.NewRNG(cfg.Seed ^ 0x6c62)
	trip(b, 0)
	pickN(b, 40, 0) // 3 routable: exactly 2 draws per pick
	for k := 0; k < 2*40; k++ {
		twin.Uint64()
	}
	if got, want := b.rng.Uint64(), twin.Uint64(); got != want {
		t.Fatalf("with an ejected backend the p2c stream drifted: next draw %x, want %x", got, want)
	}

	b = newBalancer(cfg)
	twin = sim.NewRNG(cfg.Seed ^ 0x6c62)
	trip(b, 0)
	trip(b, 1)
	trip(b, 2)
	pickN(b, 40, 0) // 1 routable: no draws at all
	if got, want := b.rng.Uint64(), twin.Uint64(); got != want {
		t.Fatalf("single-routable picks consumed RNG draws: next draw %x, want %x", got, want)
	}
}

// Hedge × migration interaction, swept over crash timing: a hedged
// attempt whose primary is migrated off a dying replica must resolve
// first-wins with exactly one served disposition per request —
// AttemptServed = Served + ServedLate + HedgeDuplicates holds in
// every scenario, and nothing queued is ever stranded.
func TestFleetHedgeMigrationInteraction(t *testing.T) {
	for _, gap := range []int64{2_000_000, 4_000_000, 6_000_000, 9_000_000} {
		gap := gap
		t.Run(fmt.Sprintf("crashGap=%d", gap), func(t *testing.T) {
			cfg := Config{
				Replicas:      4,
				Tenants:       2,
				Policy:        P2CDeadline,
				Seed:          21,
				HorizonCycles: 26_000_000,
				LoadFactor:    1.0,
				Migrate:       true,
				Faults: &faults.Plan{
					Seed:               21,
					CrashMeanGapCycles: gap,
					CrashDownCycles:    2_600_000,
				},
				CrashReplicas:    2,
				HedgeDelayCycles: 130_000,
			}
			res := Run(cfg, nil)
			if err := res.Conservation(); err != nil {
				t.Fatal(err)
			}
			if res.Hedges == 0 {
				t.Fatal("no hedges under an aggressive hedge delay")
			}
			if res.Migrated == 0 {
				t.Fatal("no attempts migrated under a crash-looping plan")
			}
			if got := res.Served + res.ServedLate + res.HedgeDuplicates; got != res.AttemptServed {
				t.Fatalf("served-once identity broken: served=%d + late=%d + dup=%d != attempt-served=%d",
					res.Served, res.ServedLate, res.HedgeDuplicates, res.AttemptServed)
			}
			for i, st := range res.PerReplica {
				if st.StrandedQueued != 0 {
					t.Errorf("replica %d stranded %d queued attempts", i, st.StrandedQueued)
				}
			}
		})
	}
}

func TestParsePolicy(t *testing.T) {
	for _, pol := range []Policy{RoundRobin, LeastLoaded, P2CDeadline} {
		got, err := ParsePolicy(pol.String())
		if err != nil || got != pol {
			t.Errorf("ParsePolicy(%q) = %v, %v", pol.String(), got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("ParsePolicy accepted a bogus policy")
	}
}
