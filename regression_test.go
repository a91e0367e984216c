// Benchmark regression gate: a fresh overhead sweep is compared
// against the committed BENCH_baseline.json store and the test fails
// when any (workload, design) cell regressed by more than 10%. The VM
// is deterministic, so on unchanged code the fresh numbers match the
// baseline exactly; the 10% band absorbs intentional perf-model tweaks
// without churning the baseline on every commit.
//
// Updating the baseline after an intended performance change:
//
//	go test -run TestSweepRegressionBaseline -update-baseline .
//	git diff BENCH_baseline.json   # review the movement, then commit
package repro

import (
	"encoding/json"
	"flag"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/ci/instrument"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/vm"
)

var updateBaseline = flag.Bool("update-baseline", false, "rewrite BENCH_baseline.json from current measurements")

const baselinePath = "BENCH_baseline.json"

// baselineSubset mirrors the determinism test's selection: one
// workload per suite tier, quick enough to run on every `go test`.
var baselineNames = []string{"radix", "histogram", "volrend", "kmeans"}

var baselineDesigns = []instrument.Design{
	instrument.CI, instrument.CnB, instrument.Naive,
}

// baselineCell is every gate's access to BENCH_baseline.json. Under
// -update-baseline it records got as cell key with the given hash and
// reports false, so the caller skips its comparisons. Otherwise it
// returns the committed cell decoded as T, failing the test when the
// cell is missing, does not decode, or holds a different number of
// rows than got.
func baselineCell[T any](t *testing.T, key, hash string, got T) (want T, ok bool) {
	t.Helper()
	store, err := engine.OpenStore(baselinePath)
	if err != nil {
		t.Fatal(err)
	}
	if *updateBaseline {
		if err := store.Put(key, hash, got); err != nil {
			t.Fatal(err)
		}
		if err := store.Save(); err != nil {
			t.Fatal(err)
		}
		t.Logf("baseline rewritten: %s cell %q", baselinePath, key)
		return want, false
	}
	cell, ok := store.Cell(key)
	if !ok {
		t.Fatalf("baseline lacks cell %q; regenerate with -update-baseline", key)
	}
	if err := json.Unmarshal(cell.Data, &want); err != nil {
		t.Fatalf("baseline cell %q: %v", key, err)
	}
	if g, w := reflect.ValueOf(got), reflect.ValueOf(want); g.Kind() == reflect.Slice && g.Len() != w.Len() {
		t.Fatalf("%s: fresh measurement has %d rows, baseline %d — regenerate it", key, g.Len(), w.Len())
	}
	return want, true
}

// inBand fails the test when the count got is outside the relative
// band of want, with an absolute floor so near-zero counts don't trip
// on small moves.
func inBand(t *testing.T, tag, what string, got, want, floor int64, relBand float64) {
	t.Helper()
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	if diff > int64(float64(want)*relBand)+floor {
		t.Errorf("%s: %s %d vs baseline %d (band ±%.0f%%)", tag, what, got, want, 100*relBand)
	}
}

// Overload-plane gate: the admission-on load-ramp rows' reject
// fractions and shed-event counts at the standard seed, stored in the
// same BENCH_baseline.json. The plane is deterministic, so unchanged
// code reproduces the baseline exactly; the bands absorb intentional
// controller tuning. Both directions are gated — shedding much more
// than baseline wastes goodput, shedding much less means admission
// stopped protecting the tail.
const (
	overloadBaselineKey  = "overload/ramp"
	overloadBaselineHash = "seed=1,dur=26000000,v1"
	overloadRampCycles   = 26_000_000
)

type overloadBaselineRow struct {
	Mult        float64
	RejectFrac  float64
	Rejected    int64
	Expired     int64
	Shed        int64
	MinerShed   float64
	MaxBrownout int
}

func measureOverloadBaseline(t *testing.T) []overloadBaselineRow {
	t.Helper()
	rows, errs := experiments.MeasureLoadRamp(engine.New(0), 1, overloadRampCycles, nil, nil)
	if len(errs) > 0 {
		t.Fatalf("ramp cells failed: %v", errs)
	}
	var out []overloadBaselineRow
	for _, r := range rows {
		if !r.Admission {
			continue
		}
		s := r.Res.Overload
		out = append(out, overloadBaselineRow{
			Mult: r.Mult, RejectFrac: s.RejectFrac(), Rejected: s.Rejected,
			Expired: s.Expired, Shed: s.Shed, MinerShed: r.Res.MinerShedFrac,
			MaxBrownout: s.MaxBrownout,
		})
	}
	return out
}

func TestOverloadRegressionBaseline(t *testing.T) {
	got := measureOverloadBaseline(t)
	if len(got) == 0 {
		t.Fatal("no admission-enabled ramp rows measured")
	}

	want, ok := baselineCell(t, overloadBaselineKey, overloadBaselineHash, got)
	if !ok {
		return
	}
	for i, g := range got {
		w := want[i]
		if g.Mult != w.Mult {
			t.Errorf("row %d: mult %.1f vs baseline %.1f — baseline is stale", i, g.Mult, w.Mult)
			continue
		}
		if d := g.RejectFrac - w.RejectFrac; d > 0.05 || d < -0.05 {
			t.Errorf("%.1fx: reject fraction %.3f vs baseline %.3f (band ±0.05)",
				g.Mult, g.RejectFrac, w.RejectFrac)
		}
		tag := fmt.Sprintf("%.1fx", g.Mult)
		inBand(t, tag, "rejected", g.Rejected, w.Rejected, 64, 0.25)
		inBand(t, tag, "expired", g.Expired, w.Expired, 64, 0.25)
		inBand(t, tag, "shed", g.Shed, w.Shed, 64, 0.25)
		if (w.MinerShed > 0) != (g.MinerShed > 0) {
			t.Errorf("%.1fx: miner shedding flipped: %.3f vs baseline %.3f", g.Mult, g.MinerShed, w.MinerShed)
		}
		if g.MaxBrownout != w.MaxBrownout {
			t.Errorf("%.1fx: max brownout %d vs baseline %d", g.Mult, g.MaxBrownout, w.MaxBrownout)
		}
	}
}

// Fleet-resilience gate: the crash-soak sweep's accounting at the
// standard seed, stored in the same BENCH_baseline.json. The fleet is
// deterministic, so unchanged code reproduces the baseline exactly;
// the bands absorb intentional balancer/retry tuning. Retry
// amplification is gated hard at the budget ceiling in every cell —
// that bound holds by construction, so exceeding it means the budget
// accounting broke, never the workload shifting.
const (
	fleetBaselineKey  = "fleet/ramp"
	fleetBaselineHash = "seed=1,replicas=8,tenants=4,lb=p2c,dur=26000000,v1"
	fleetRampCycles   = 26_000_000
)

// fleetBaselineConfig mirrors `ciexp fleet`'s defaults: 8 replicas
// under p2c, 4 tenants with tenant 0 misbehaving, hedging at a 0.1 ms
// floor, the standard retry budget.
func fleetBaselineConfig() fleet.Config {
	return fleet.Config{
		Replicas:          8,
		Tenants:           4,
		Policy:            fleet.P2CDeadline,
		Seed:              1,
		HorizonCycles:     fleetRampCycles,
		RetryBudgetFrac:   0.1,
		HedgeDelayCycles:  260_000,
		MisbehavingTenant: 0,
	}
}

type fleetBaselineRow struct {
	Load       float64
	Crash      bool
	Injected   int64
	Served     int64
	Retries    int64
	Hedges     int64
	Crashes    int64
	Ejections  int64
	FailedPerm int64
}

func measureFleetBaseline(t *testing.T) []fleetBaselineRow {
	t.Helper()
	rows, errs := experiments.MeasureFleetRamp(engine.New(0), fleetBaselineConfig(), nil)
	if len(errs) > 0 {
		t.Fatalf("fleet cells failed: %v", errs)
	}
	var out []fleetBaselineRow
	for _, r := range rows {
		if amp := r.Res.Amplification(); amp > experiments.FleetAmpCeiling+1e-9 {
			t.Errorf("%.1fx crash=%t: retry amplification %.3f exceeds the %.2f budget bound",
				r.Load, r.Crash, amp, experiments.FleetAmpCeiling)
		}
		out = append(out, fleetBaselineRow{
			Load: r.Load, Crash: r.Crash,
			Injected: r.Res.Injected, Served: r.Res.Served,
			Retries: r.Res.Retries, Hedges: r.Res.Hedges,
			Crashes: r.Res.Crashes, Ejections: r.Res.Ejections,
			FailedPerm: r.Res.FailedPerm,
		})
	}
	return out
}

// Zone-outage and scale cells: the migration + zone layer's accounting
// at the standard seed. The zone pair re-runs `ciexp fleet`'s headline
// (1-of-4 zones crash-looping at 1.2x with migration on) and enforces
// CheckFleetZone's gates unconditionally — goodput floor, zero
// stranded attempts, amplification ceiling — baseline or not. The
// scale cell is a shrunk (scale 2) FleetScaleConfig soak whose
// conservation identities are likewise enforced unconditionally; the
// canonical 10M-request run stays behind `ciexp -scale 42 fleet`.
const (
	fleetZoneBaselineKey   = "fleet/zone"
	fleetZoneBaselineHash  = "seed=1,replicas=8,zones=4,migrate=1,dur=26000000,v1"
	fleetScaleBaselineKey  = "fleet/scale"
	fleetScaleBaselineHash = "seed=1,replicas=64,zones=4,scale=2,v1"
	fleetScaleTestScale    = 2
)

type fleetZoneBaselineRow struct {
	Outage          bool
	Injected        int64
	Served          int64
	Migrated        int64
	MigrationFailed int64
	ZoneCrashes     int64
	Ejections       int64
}

func measureFleetZoneBaseline(t *testing.T) []fleetZoneBaselineRow {
	t.Helper()
	noOutage, outage, errs := experiments.MeasureFleetZone(engine.New(0), fleetBaselineConfig())
	if len(errs) > 0 {
		t.Fatalf("zone cells failed: %v", errs)
	}
	for _, v := range experiments.CheckFleetZone(noOutage, outage) {
		t.Errorf("zone gate violation: %s", v)
	}
	var out []fleetZoneBaselineRow
	for _, p := range []struct {
		outage bool
		res    *fleet.Result
	}{{false, noOutage}, {true, outage}} {
		out = append(out, fleetZoneBaselineRow{
			Outage: p.outage, Injected: p.res.Injected, Served: p.res.Served,
			Migrated: p.res.Migrated, MigrationFailed: p.res.MigrationFailed,
			ZoneCrashes: p.res.ZoneCrashes, Ejections: p.res.Ejections,
		})
	}
	return out
}

func measureFleetScaleBaseline(t *testing.T) fleetZoneBaselineRow {
	t.Helper()
	cfg := experiments.FleetScaleConfig(1, fleetScaleTestScale)
	res := fleet.Run(cfg, nil)
	if err := res.Conservation(); err != nil {
		t.Errorf("scale soak conservation: %v", err)
	}
	return fleetZoneBaselineRow{
		Outage: true, Injected: res.Injected, Served: res.Served,
		Migrated: res.Migrated, MigrationFailed: res.MigrationFailed,
		ZoneCrashes: res.ZoneCrashes, Ejections: res.Ejections,
	}
}

// compareFleetZoneRow gates one measured row against its baseline twin:
// injected counts exactly (the arrival process is untouched by
// serving-side changes), the serving/migration counts inside bands.
func compareFleetZoneRow(t *testing.T, tag string, g, w fleetZoneBaselineRow) {
	t.Helper()
	if g.Injected != w.Injected {
		t.Errorf("%s: injected %d vs baseline %d — workload generator changed, regenerate the baseline",
			tag, g.Injected, w.Injected)
	}
	inBand(t, tag, "served", g.Served, w.Served, 64, 0.10)
	inBand(t, tag, "migrated", g.Migrated, w.Migrated, 64, 0.25)
	inBand(t, tag, "migration-failed", g.MigrationFailed, w.MigrationFailed, 16, 0.25)
	if g.ZoneCrashes != w.ZoneCrashes {
		t.Errorf("%s: zone crashes %d vs baseline %d — the pre-drawn zone schedule changed, regenerate the baseline",
			tag, g.ZoneCrashes, w.ZoneCrashes)
	}
	inBand(t, tag, "ejections", g.Ejections, w.Ejections, 2, 0.25)
}

func TestFleetRegressionBaseline(t *testing.T) {
	got := measureFleetBaseline(t)
	if len(got) == 0 {
		t.Fatal("no fleet rows measured")
	}
	zone := measureFleetZoneBaseline(t)
	scale := measureFleetScaleBaseline(t)

	wantZone, okZone := baselineCell(t, fleetZoneBaselineKey, fleetZoneBaselineHash, zone)
	wantScale, okScale := baselineCell(t, fleetScaleBaselineKey, fleetScaleBaselineHash, scale)
	want, ok := baselineCell(t, fleetBaselineKey, fleetBaselineHash, got)
	if !okZone || !okScale || !ok {
		return
	}
	for i, g := range zone {
		compareFleetZoneRow(t, fmt.Sprintf("zone outage=%t", g.Outage), g, wantZone[i])
	}
	compareFleetZoneRow(t, "scale soak", scale, wantScale)

	for i, g := range got {
		w := want[i]
		if g.Load != w.Load || g.Crash != w.Crash {
			t.Errorf("row %d: (%.1fx, crash=%t) vs baseline (%.1fx, crash=%t) — baseline is stale",
				i, g.Load, g.Crash, w.Load, w.Crash)
			continue
		}
		tag := fmt.Sprintf("%.1fx crash=%t", g.Load, g.Crash)
		// The arrival process is untouched by serving-side changes, so
		// injected counts must reproduce exactly.
		if g.Injected != w.Injected {
			t.Errorf("%s: injected %d vs baseline %d — workload generator changed, regenerate the baseline",
				tag, g.Injected, w.Injected)
		}
		inBand(t, tag, "served", g.Served, w.Served, 64, 0.10)
		inBand(t, tag, "retries", g.Retries, w.Retries, 64, 0.25)
		inBand(t, tag, "hedges", g.Hedges, w.Hedges, 64, 0.25)
		inBand(t, tag, "failed-perm", g.FailedPerm, w.FailedPerm, 64, 0.25)
		inBand(t, tag, "crashes", g.Crashes, w.Crashes, 2, 0.25)
		inBand(t, tag, "ejections", g.Ejections, w.Ejections, 2, 0.25)
	}
}

// Quantum-adaptivity gate: the aggregate (design, policy) rows of the
// `ciexp quantum` figure over the baseline workload subset, stored in
// the same BENCH_baseline.json. The sweep is deterministic (every
// variant re-seeds the request-class stream), so unchanged code
// reproduces the baseline exactly; the bands absorb intentional
// policy-tuning. CheckQuantum's acceptance gates — FeedbackPID beating
// the fixed quantum on p99.9 gap error within the CI overhead budget —
// are enforced unconditionally, baseline or not.
const (
	quantumBaselineKey  = "quantum/ramp"
	quantumBaselineHash = "names=radix,histogram,volrend,kmeans,scale=1,v1"
)

func measureQuantumBaseline(t *testing.T) *experiments.QuantumFigure {
	t.Helper()
	fig, err := experiments.MeasureQuantum(engine.New(0), 1, baselineNames)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Errs) > 0 {
		t.Fatalf("quantum cells failed: %v", fig.Errs)
	}
	for _, v := range fig.CheckQuantum() {
		t.Errorf("quantum gate violation: %s", v)
	}
	return fig
}

func TestQuantumRegressionBaseline(t *testing.T) {
	fig := measureQuantumBaseline(t)
	got := fig.Agg
	if len(got) == 0 {
		t.Fatal("no quantum aggregate rows measured")
	}

	want, ok := baselineCell(t, quantumBaselineKey, quantumBaselineHash, got)
	if !ok {
		return
	}
	for i, g := range got {
		w := want[i]
		if g.Design != w.Design || g.Policy != w.Policy {
			t.Errorf("row %d: %s/%s vs baseline %s/%s — baseline is stale, regenerate it",
				i, g.Design, g.Policy, w.Design, w.Policy)
			continue
		}
		tag := g.Design + "/" + g.Policy
		inBand(t, tag, "p99.9 gap error", g.P999Err, w.P999Err, 256, 0.25)
		inBand(t, tag, "fires", g.Fires, w.Fires, 64, 0.25)
		inBand(t, tag, "overruns", g.Overruns, w.Overruns, 64, 0.25)
		// Overhead regression = the delivery mechanism got pricier.
		if d := g.Overhead - w.Overhead; d > 0.02 {
			t.Errorf("%s: overhead %.4f vs baseline %.4f (band +2 points)", tag, g.Overhead, w.Overhead)
		}
	}
}

func TestSweepRegressionBaseline(t *testing.T) {
	sel, err := experiments.WorkloadsByName(baselineNames)
	if err != nil {
		t.Fatal(err)
	}

	// A fresh, empty store: nothing is skipped, and each cell records
	// the content hash it is stored under.
	store, err := engine.OpenStore(filepath.Join(t.TempDir(), "overhead.json"))
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(0)
	eng.Store = store
	fig := experiments.MeasureFigureOverheadSel(eng, 1, 1, baselineDesigns, sel)
	if len(fig.Errs) > 0 {
		t.Fatalf("sweep cells failed: %v", fig.Errs)
	}
	for _, name := range baselineNames {
		key := fmt.Sprintf("overhead/t1/%s", name)
		fresh, _ := store.Cell(key)
		got := fig.Rows[name]
		want, ok := baselineCell(t, key, fresh.Hash, got)
		if !ok {
			continue
		}
		for di, g := range got {
			w := want[di]
			if g.Design != w.Design {
				t.Errorf("%s[%d]: design %v vs baseline %v — baseline is stale, regenerate it",
					name, di, g.Design, w.Design)
				continue
			}
			// Regression = overhead grew. Compare with 10% relative
			// tolerance plus a small absolute floor so near-zero
			// overheads don't trip on rounding.
			limit := w.Overhead*1.10 + 0.002
			if g.Overhead > limit {
				t.Errorf("%s/%v regressed: overhead %.4f > baseline %.4f (+10%%)",
					name, g.Design, g.Overhead, w.Overhead)
			}
			if g.Overhead < w.Overhead*0.90-0.002 {
				t.Logf("%s/%v improved past the band (%.4f vs %.4f); consider -update-baseline",
					name, g.Design, g.Overhead, w.Overhead)
			}
		}
	}
}

// Compiled-tier engagement gate: the compiled tier's speed comes from
// loop superblocks and fused instruction pairs, so if either stops
// being emitted the tier silently falls back toward interpreter speed
// while every parity check still passes. The counts are deterministic,
// so they are pinned exactly, per program, over the baseline subset
// compiled as the VM workloads compile it (CI design, 250-IR probes,
// scale 8). Host-time speed is the benchmark's job (vm_interp,
// vm_compiled).
func TestCompiledTierEngages(t *testing.T) {
	want := map[string]struct{ superblocks, cmpBr, loadArith, arithStore int }{
		"radix":     {13, 21, 12, 0},
		"histogram": {2, 4, 2, 0},
		"volrend":   {6, 14, 6, 0},
		"kmeans":    {2, 6, 0, 0},
	}
	sel, err := experiments.WorkloadsByName(baselineNames)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(0)
	for _, wl := range sel {
		prog, err := experiments.CompileCached(eng, wl, 8,
			core.WithDesign(instrument.CI), core.WithProbeInterval(250))
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		var got struct{ superblocks, cmpBr, loadArith, arithStore int }
		got.superblocks = vm.Superblocks(prog.Mod)
		got.cmpBr, got.loadArith, got.arithStore = vm.FusiblePairs(prog.Mod)
		if got != want[wl.Name] {
			t.Errorf("%s: superblocks, cmp+br, load+arith, arith+store = %v, want %v",
				wl.Name, got, want[wl.Name])
		}
	}
}
