package experiments

// The regression cells: TestRegressionBaseline measures the overload,
// fleet and quantum cells at the standard seed and pins every field of
// every row in testdata/cells.golden, one line per row, floats printed
// with %v so they round-trip exactly; each cell is a subtest that
// compares its own lines. The models are deterministic, so unchanged
// code reproduces every line byte for byte. The fleet and
// quantum cells also hold their measurement to the figure's own gate
// (gateFleet, which covers the scale soak's conservation identities,
// and gateQuantum). The Figure 9 cells over the same workloads are
// pinned by TestEngineWorkerDeterminism (testdata/overhead_subset.golden).
//
// After an intended change of the measured numbers:
//
//	go test ./internal/experiments -run RegressionBaseline -update
//	git diff internal/experiments/testdata/cells.golden   # review, then commit

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ci/instrument"
	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/interleave"
	"repro/internal/shenango"
	"repro/internal/vm"
)

// baselineNames is one workload per suite tier, quick enough to run on
// every `go test`.
var baselineNames = []string{"radix", "histogram", "volrend", "kmeans"}

var baselineDesigns = []instrument.Design{instrument.CI, instrument.CnB, instrument.Naive}

// baselineCycles is the horizon of the overload and fleet cells.
const baselineCycles = 26_000_000

// fleetBaselineConfig mirrors `ciexp fleet`'s defaults: 8 replicas
// under p2c, 4 tenants with tenant 0 misbehaving, hedging at a 0.1 ms
// floor, the standard retry budget.
func fleetBaselineConfig() fleet.Config {
	return fleet.Config{
		Replicas:          8,
		Tenants:           4,
		Policy:            fleet.P2CDeadline,
		Seed:              1,
		HorizonCycles:     baselineCycles,
		RetryBudgetFrac:   0.1,
		HedgeDelayCycles:  260_000,
		MisbehavingTenant: 0,
	}
}

// baselineCells names the regression cells, each line of cells.golden
// starts with one of them.
var baselineCells = []string{"overload/ramp", "fleet/ramp", "fleet/zone", "fleet/scale", "quantum/ramp"}

// cellLines returns the lines of golden text that belong to cell.
func cellLines(text, cell string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(text, "\n") {
		if strings.HasPrefix(line, cell+" ") {
			b.WriteString(line)
		}
	}
	return b.String()
}

func TestRegressionBaseline(t *testing.T) {
	eng := engine.New(0)
	var b strings.Builder
	rows, errs := measureLoadRamp(eng, 1, baselineCycles, nil, nil)
	if len(errs) > 0 {
		t.Fatalf("ramp cells failed: %v", errs)
	}
	for _, r := range rows {
		if s := r.Res.Overload; r.Admission {
			fmt.Fprintf(&b, "overload/ramp Mult=%v RejectFrac=%v Rejected=%v Expired=%v Shed=%v MinerShed=%v MaxBrownout=%v\n",
				r.Mult, s.RejectFrac(), s.Rejected, s.Expired, s.Shed, r.Res.MinerShedFrac, s.MaxBrownout)
		}
	}

	// `ciexp fleet`'s figure at the baseline config, with a shrunk
	// (scale 2) FleetScaleConfig soak; the canonical 10M-request run
	// stays behind `ciexp -scale 42 fleet`.
	fig, errs := measureFleet(eng, fleetBaselineConfig(), fleetLoadFactors, 2)
	if len(errs) > 0 {
		t.Fatalf("fleet cells failed: %v", errs)
	}
	for _, v := range gateFleet(fig, Inputs{Flags: &cliflags.Flags{Scale: 2}}) {
		t.Errorf("fleet gate violation: %s", v)
	}
	for _, r := range fig.Rows {
		fmt.Fprintf(&b, "fleet/ramp Load=%v Crash=%v Injected=%v Served=%v Retries=%v Hedges=%v Crashes=%v Ejections=%v FailedPerm=%v\n",
			r.Load, r.Crash, r.Res.Injected, r.Res.Served, r.Res.Retries, r.Res.Hedges, r.Res.Crashes, r.Res.Ejections, r.Res.FailedPerm)
	}
	zone := func(cell string, outage bool, res *fleet.Result) {
		fmt.Fprintf(&b, "%s Outage=%v Injected=%v Served=%v Migrated=%v MigrationFailed=%v ZoneCrashes=%v Ejections=%v\n",
			cell, outage, res.Injected, res.Served, res.Migrated, res.MigrationFailed, res.ZoneCrashes, res.Ejections)
	}
	zone("fleet/zone", false, fig.NoOutage)
	zone("fleet/zone", true, fig.Outage)
	zone("fleet/scale", true, fig.Scale)

	q, errs, err := measureQuantum(eng, 1, baselineNames)
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) > 0 {
		t.Fatalf("quantum cells failed: %v", errs)
	}
	for _, v := range gateQuantum(q, Inputs{}) {
		t.Errorf("quantum gate violation: %s", v)
	}
	for _, r := range q.Agg {
		fmt.Fprintf(&b, "quantum/ramp Workload=%v Design=%v Policy=%v P50Err=%v P999Err=%v MaxErr=%v MeanGap=%v Overhead=%v Overruns=%v Fires=%v FinalInterval=%v\n",
			r.Workload, r.Design, r.Policy, r.P50Err, r.P999Err, r.MaxErr, r.MeanGap, r.Overhead, r.Overruns, r.Fires, r.FinalInterval)
	}
	if *updateGolden {
		checkGolden(t, "cells.golden", b.String())
		return
	}
	want, err := os.ReadFile(filepath.Join("testdata", "cells.golden"))
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var known int
	for _, cell := range baselineCells {
		known += len(cellLines(string(want), cell))
		t.Run(cell, func(t *testing.T) {
			if got, want := cellLines(b.String(), cell), cellLines(string(want), cell); got != want {
				t.Errorf("cells.golden %s drifted (rerun with -update if intended):\ngot:\n%swant:\n%s", cell, got, want)
			}
		})
	}
	if known != len(want) {
		t.Errorf("cells.golden holds lines of no cell in %v", baselineCells)
	}
}

// Every figure's gate passes a healthy planted input and fails the
// same input with one guarded value broken. No model runs; a gate that
// passes its broken input is reported.
func TestFigureGatesCanFail(t *testing.T) {
	slo := Inputs{Flags: &cliflags.Flags{SLOP999Us: 500, MaxReject: 0.1, Scale: 1}}
	okRun := appRun{Reproduced: true, Ledger: [6]int64{10, 8, 1, 1, 0, 32}}
	chaos := func(run appRun) []chaosRow {
		return []chaosRow{{Subsystem: "mtcp", Rate: 0.01, Throughput: 9, TailUs: 30, appRun: run, BaseThroughput: 9.4, BaseTailUs: 29}}
	}
	ramp := func(p999 float64) []rampRow {
		return []rampRow{{Mult: 1.0, Admission: true, Res: shenango.Result{P999Us: p999}}}
	}
	soak := func(shed bool) *soakFigure {
		return &soakFigure{Rows: []soakRow{{soakPhase: soakPhase{1.0, 0.001}, Res: shenango.Result{P999Us: 100}, Reproduced: true}},
			MTCP: okRun, MTCPShed: shed}
	}
	fleetFig := func(crashes, migrated int64) *fleetFigure {
		res := func(goodput float64) *fleet.Result {
			return &fleet.Result{Injected: 100, Attempts: 105, GoodputRPS: goodput, Crashes: crashes,
				Ejections: 1, Readmissions: 1, ZoneCrashes: 1, Migrated: migrated}
		}
		return &fleetFigure{Rows: []fleetRow{{Load: fleetSoakLoad, Res: res(100)}, {Load: fleetSoakLoad, Crash: true, Res: res(95)}},
			NoOutage: res(100), Outage: res(95)}
	}
	quantum := func(fbP999 int64) *quantumFigure {
		return &quantumFigure{Workloads: []string{"w"}, Agg: []quantumRow{
			{Design: "CI", Policy: "fixed", P999Err: 25000}, {Design: "CI", Policy: "feedback", P999Err: fbP999}}}
	}
	sanitizeFig := func(divergences int) *sanitizeFigure {
		return &sanitizeFigure{Rows: []sanitizeRow{{Design: "CI", Programs: 1, Divergences: divergences}}}
	}
	interleaveRows := func(racy int) []interleaveRow { return []interleaveRow{{Name: "m", Racy: racy}} }
	for _, tc := range []struct {
		gate         string
		healthy, bad func() []string
	}{
		{"chaos", func() []string { return gateChaos(chaos(okRun), slo) },
			func() []string { bad := okRun; bad.Reproduced = false; return gateChaos(chaos(bad), slo) }},
		{"ramp", func() []string { return gateRamp(ramp(100), slo) }, func() []string { return gateRamp(ramp(900), slo) }},
		{"soak", func() []string { return gateSoak(soak(true), slo) }, func() []string { return gateSoak(soak(false), slo) }},
		{"fleet soak pair", func() []string { return gateFleet(fleetFig(1, 1), slo) },
			func() []string { return gateFleet(fleetFig(0, 1), slo) }},
		{"fleet zone pair", func() []string { return gateFleet(fleetFig(1, 1), slo) },
			func() []string { return gateFleet(fleetFig(1, 0), slo) }},
		{"fleet scale soak", func() []string { return gateFleet(fleetFig(1, 1), slo) }, func() []string {
			f := fleetFig(1, 1)
			f.Scale = &fleet.Result{Injected: 5}
			return gateFleet(f, Inputs{Flags: &cliflags.Flags{Scale: fleetScaleTarget}})
		}},
		{"quantum", func() []string { return gateQuantum(quantum(23000), slo) },
			func() []string { return gateQuantum(quantum(26000), slo) }},
		{"sanitize", func() []string { return gateSanitize(sanitizeFig(0), slo) },
			func() []string { return gateSanitize(sanitizeFig(1), slo) }},
		{"sanitize inconclusive", func() []string { return gateSanitize(sanitizeFig(0), slo) },
			func() []string {
				return gateSanitize(&sanitizeFigure{Rows: []sanitizeRow{{Design: "CI", Programs: 1, Inconclusive: 1}}}, slo)
			}},
		{"interleave", func() []string { return gateInterleave(interleaveRows(0), slo) },
			func() []string { return gateInterleave(interleaveRows(1), slo) }},
		{"interleave inconclusive", func() []string { return gateInterleave(interleaveRows(0), slo) },
			func() []string { return gateInterleave([]interleaveRow{{Name: "m", Inconclusive: 1}}, slo) }},
		{"interleave classes", func() []string { return gateInterleave(interleaveRows(0), slo) },
			func() []string {
				spec := interleave.Spec{Name: "m", Words: []interleave.Word{{Addr: 0, Class: interleave.ClassObserved}}}
				rep := &interleave.Report{Addrs: []interleave.AddrReport{{Addr: 0, Class: interleave.ClassAtomic}}}
				return gateInterleave([]interleaveRow{newInterleaveRow(&spec, rep)}, slo)
			}},
	} {
		if v := tc.healthy(); len(v) > 0 {
			t.Errorf("%s: the healthy input fails its gate: %v", tc.gate, v)
		}
		if v := tc.bad(); len(v) == 0 {
			t.Errorf("%s: the gate passed its broken input", tc.gate)
		}
	}
}

// Compiled-tier engagement gate: the compiled tier's speed comes from
// loop superblocks, the address-mode µops in their bodies and fused
// instruction pairs, so if any of them stops
// being emitted the tier silently falls back toward interpreter speed
// while every parity check still passes. The counts are deterministic,
// so they are pinned exactly, per program, over the baseline subset
// compiled as the VM workloads compile it (CI design, 250-IR probes,
// scale 8). Host-time speed is the benchmark's job (vm_interp,
// vm_compiled).
func TestCompiledTierEngages(t *testing.T) {
	type counts struct{ superblocks, addrOps, cmpBr, loadArith, arithStore int }
	want := map[string]counts{
		"radix":     {13, 29, 21, 12, 0},
		"histogram": {2, 4, 4, 2, 0},
		"volrend":   {6, 6, 14, 6, 0},
		"kmeans":    {2, 1, 6, 0, 0},
	}
	sel, err := workloadsByName(baselineNames)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(0)
	for _, wl := range sel {
		prog, err := compileCached(eng, wl, 8,
			core.WithDesign(instrument.CI), core.WithProbeInterval(250))
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		var got counts
		got.superblocks, got.addrOps = vm.Superblocks(prog.Mod)
		got.cmpBr, got.loadArith, got.arithStore = vm.FusiblePairs(prog.Mod)
		if got != want[wl.Name] {
			t.Errorf("%s: superblocks, address µops, cmp+br, load+arith, arith+store = %v, want %v",
				wl.Name, got, want[wl.Name])
		}
	}
}
