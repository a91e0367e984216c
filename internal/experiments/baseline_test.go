package experiments

// The regression baseline: each row of baselineRows measures one cell
// of testdata/baseline.json afresh and compares it with the committed
// cell. The models are deterministic, so unchanged code reproduces
// every cell exactly; the bands absorb intentional tuning without
// churning the file on every commit. The fleet and quantum cells also
// hold their measurement to the figure's own gate (gateFleet,
// gateQuantum), baseline or not, and the scale cell to the
// conservation identities.
//
// After an intended change of the measured numbers:
//
//	go test ./internal/experiments -run Baseline -update-baseline
//	git diff internal/experiments/testdata/baseline.json   # review, then commit

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/ci/instrument"
	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/shenango"
	"repro/internal/vm"
)

var updateBaseline = flag.Bool("update-baseline", false, "rewrite testdata/baseline.json from current measurements")

const baselinePath = "testdata/baseline.json"

// baselineNames is one workload per suite tier, quick enough to run on
// every `go test`.
var baselineNames = []string{"radix", "histogram", "volrend", "kmeans"}

var baselineDesigns = []instrument.Design{instrument.CI, instrument.CnB, instrument.Naive}

// baselineCycles is the horizon of the overload and fleet cells.
const baselineCycles = 26_000_000

// baselineRow is one cell of testdata/baseline.json. measure computes
// it afresh, failing the test on an unconditional gate; compare lists
// how the fresh cell got has left the bands of the committed cell want,
// both as JSON. shifts name the gated fields for
// TestBaselineGatesCanFail.
type baselineRow struct {
	key     string
	measure func(t *testing.T, eng *engine.Engine) any
	compare func(got, want []byte) []string
	shifts  []shift
}

var baselineRows = append([]baselineRow{
	{"overload/ramp", measureOverloadCell, decoded(compareOverload), []shift{
		{"Mult", exact}, {"RejectFrac", past(0.05)}, {"Rejected", inBandPast(0.25, 64)},
		{"Expired", inBandPast(0.25, 64)}, {"Shed", inBandPast(0.25, 64)},
		{"MinerShed", flipSign}, {"MaxBrownout", exact},
	}},
	{"fleet/ramp", measureFleetRampCell, decoded(compareFleetRamp), []shift{
		{"Load", exact}, {"Injected", exact}, {"Served", inBandPast(0.10, 64)},
		{"Retries", inBandPast(0.25, 64)}, {"Hedges", inBandPast(0.25, 64)},
		{"FailedPerm", inBandPast(0.25, 64)}, {"Crashes", inBandPast(0.25, 2)},
		{"Ejections", inBandPast(0.25, 2)},
	}},
	{"fleet/zone", measureFleetZoneCell, decoded(func(got, want []fleetZoneBaselineRow) []string {
		var v violations
		for i, g := range got {
			v.fleetZoneRow(fmt.Sprintf("zone outage=%t", g.Outage), g, want[i])
		}
		return v
	}), fleetZoneShifts},
	{"fleet/scale", measureFleetScaleCell, decoded(func(got, want fleetZoneBaselineRow) []string {
		var v violations
		v.fleetZoneRow("scale soak", got, want)
		return v
	}), fleetZoneShifts},
	{"quantum/ramp", measureQuantumCell, decoded(compareQuantum), []shift{
		{"P999Err", inBandPast(0.25, 256)}, {"Fires", inBandPast(0.25, 64)},
		{"Overruns", inBandPast(0.25, 64)}, {"Overhead", past(0.02)},
	}},
}, overheadRows()...)

// overheadRows are the Figure 9 cells, one per baseline workload.
func overheadRows() []baselineRow {
	var rows []baselineRow
	for _, name := range baselineNames {
		rows = append(rows, baselineRow{"overhead/t1/" + name, measureOverheadCell(name), decoded(compareOverhead), []shift{
			{"Design", exact},
			{"Overhead", func(w float64) float64 { return w*0.10 + 0.002 + 1e-6 }},
		}})
	}
	return rows
}

// decoded adapts a comparator of typed cells to baselineRow.compare.
// A slice-valued cell must hold as many rows as its baseline.
func decoded[T any](compare func(got, want T) []string) func(got, want []byte) []string {
	return func(got, want []byte) []string {
		var g, w T
		if err := errors.Join(json.Unmarshal(got, &g), json.Unmarshal(want, &w)); err != nil {
			return []string{err.Error()}
		}
		if gv, wv := reflect.ValueOf(g), reflect.ValueOf(w); gv.Kind() == reflect.Slice && gv.Len() != wv.Len() {
			return []string{fmt.Sprintf("fresh measurement has %d rows, baseline %d — regenerate it", gv.Len(), wv.Len())}
		}
		return compare(g, w)
	}
}

// violations collects a comparator's findings.
type violations []string

func (v *violations) add(format string, args ...any) {
	*v = append(*v, fmt.Sprintf(format, args...))
}

// band records a violation when the count got is outside the relative
// band of want, with an absolute floor so near-zero counts don't trip
// on small moves.
func (v *violations) band(tag, what string, got, want, floor int64, relBand float64) {
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	if diff > int64(float64(want)*relBand)+floor {
		v.add("%s: %s %d vs baseline %d (band ±%.0f%%)", tag, what, got, want, 100*relBand)
	}
}

// Overload-plane cell: the admission-on load-ramp rows' reject
// fractions and shed-event counts at the standard seed. Both directions
// are gated — shedding much more than baseline wastes goodput, shedding
// much less means admission stopped protecting the tail.
type overloadBaselineRow struct {
	Mult        float64
	RejectFrac  float64
	Rejected    int64
	Expired     int64
	Shed        int64
	MinerShed   float64
	MaxBrownout int
}

func measureOverloadCell(t *testing.T, eng *engine.Engine) any {
	rows, errs := measureLoadRamp(eng, 1, baselineCycles, nil, nil)
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
	if len(out) == 0 {
		t.Fatal("no admission-enabled ramp rows measured")
	}
	return out
}

func compareOverload(got, want []overloadBaselineRow) []string {
	var v violations
	for i, g := range got {
		w := want[i]
		if g.Mult != w.Mult {
			v.add("row %d: mult %.1f vs baseline %.1f — baseline is stale", i, g.Mult, w.Mult)
			continue
		}
		if d := g.RejectFrac - w.RejectFrac; d > 0.05 || d < -0.05 {
			v.add("%.1fx: reject fraction %.3f vs baseline %.3f (band ±0.05)", g.Mult, g.RejectFrac, w.RejectFrac)
		}
		tag := fmt.Sprintf("%.1fx", g.Mult)
		v.band(tag, "rejected", g.Rejected, w.Rejected, 64, 0.25)
		v.band(tag, "expired", g.Expired, w.Expired, 64, 0.25)
		v.band(tag, "shed", g.Shed, w.Shed, 64, 0.25)
		if (w.MinerShed > 0) != (g.MinerShed > 0) {
			v.add("%.1fx: miner shedding flipped: %.3f vs baseline %.3f", g.Mult, g.MinerShed, w.MinerShed)
		}
		if g.MaxBrownout != w.MaxBrownout {
			v.add("%.1fx: max brownout %d vs baseline %d", g.Mult, g.MaxBrownout, w.MaxBrownout)
		}
	}
	return v
}

// Fleet-resilience cell: the crash-soak sweep's accounting at the
// standard seed. Retry amplification is gated at the budget ceiling in
// every cell — that bound holds by construction, so exceeding it means
// the budget accounting broke, never the workload shifting.
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

// baselineFleet is `ciexp fleet`'s figure at the baseline config,
// measured once per engine and held to gateFleet; the fleet/ramp and
// fleet/zone cells read its rows.
var baselineFleet struct {
	eng *engine.Engine
	fig *fleetFigure
}

func measureBaselineFleet(t *testing.T, eng *engine.Engine) *fleetFigure {
	if baselineFleet.eng != eng {
		fig, errs := measureFleet(eng, fleetBaselineConfig(), fleetLoadFactors, 1)
		if len(errs) > 0 {
			t.Fatalf("fleet cells failed: %v", errs)
		}
		for _, v := range gateFleet(fig, Inputs{Flags: &cliflags.Flags{Scale: 1}}) {
			t.Errorf("fleet gate violation: %s", v)
		}
		baselineFleet.eng, baselineFleet.fig = eng, fig
	}
	return baselineFleet.fig
}

func measureFleetRampCell(t *testing.T, eng *engine.Engine) any {
	var out []fleetBaselineRow
	for _, r := range measureBaselineFleet(t, eng).Rows {
		out = append(out, fleetBaselineRow{
			Load: r.Load, Crash: r.Crash,
			Injected: r.Res.Injected, Served: r.Res.Served,
			Retries: r.Res.Retries, Hedges: r.Res.Hedges,
			Crashes: r.Res.Crashes, Ejections: r.Res.Ejections,
			FailedPerm: r.Res.FailedPerm,
		})
	}
	if len(out) == 0 {
		t.Fatal("no fleet rows measured")
	}
	return out
}

func compareFleetRamp(got, want []fleetBaselineRow) []string {
	var v violations
	for i, g := range got {
		w := want[i]
		if g.Load != w.Load || g.Crash != w.Crash {
			v.add("row %d: (%.1fx, crash=%t) vs baseline (%.1fx, crash=%t) — baseline is stale",
				i, g.Load, g.Crash, w.Load, w.Crash)
			continue
		}
		tag := fmt.Sprintf("%.1fx crash=%t", g.Load, g.Crash)
		// The arrival process is untouched by serving-side changes, so
		// injected counts must reproduce exactly.
		if g.Injected != w.Injected {
			v.add("%s: injected %d vs baseline %d — workload generator changed, regenerate the baseline",
				tag, g.Injected, w.Injected)
		}
		v.band(tag, "served", g.Served, w.Served, 64, 0.10)
		v.band(tag, "retries", g.Retries, w.Retries, 64, 0.25)
		v.band(tag, "hedges", g.Hedges, w.Hedges, 64, 0.25)
		v.band(tag, "failed-perm", g.FailedPerm, w.FailedPerm, 64, 0.25)
		v.band(tag, "crashes", g.Crashes, w.Crashes, 2, 0.25)
		v.band(tag, "ejections", g.Ejections, w.Ejections, 2, 0.25)
	}
	return v
}

// Zone-outage and scale cells: the migration and zone layer's
// accounting at the standard seed. The zone pair is `ciexp fleet`'s
// headline (1-of-4 zones crash-looping at 1.2x with migration on),
// gated with the rest of the figure by gateFleet — goodput floor, zero
// stranded attempts, amplification ceiling. The scale cell is a shrunk (scale 2)
// FleetScaleConfig soak under the conservation identities; the
// canonical 10M-request run stays behind `ciexp -scale 42 fleet`.
type fleetZoneBaselineRow struct {
	Outage          bool
	Injected        int64
	Served          int64
	Migrated        int64
	MigrationFailed int64
	ZoneCrashes     int64
	Ejections       int64
}

func zoneBaselineRow(outage bool, res *fleet.Result) fleetZoneBaselineRow {
	return fleetZoneBaselineRow{
		Outage: outage, Injected: res.Injected, Served: res.Served,
		Migrated: res.Migrated, MigrationFailed: res.MigrationFailed,
		ZoneCrashes: res.ZoneCrashes, Ejections: res.Ejections,
	}
}

func measureFleetZoneCell(t *testing.T, eng *engine.Engine) any {
	fig := measureBaselineFleet(t, eng)
	return []fleetZoneBaselineRow{zoneBaselineRow(false, fig.NoOutage), zoneBaselineRow(true, fig.Outage)}
}

func measureFleetScaleCell(t *testing.T, _ *engine.Engine) any {
	res := fleet.Run(FleetScaleConfig(1, 2), nil)
	if err := res.Conservation(); err != nil {
		t.Errorf("scale soak conservation: %v", err)
	}
	return zoneBaselineRow(true, res)
}

// fleetZoneRow gates one zone-layer row against its baseline twin:
// injected counts and the pre-drawn zone crashes exactly, the
// serving and migration counts inside bands.
func (v *violations) fleetZoneRow(tag string, g, w fleetZoneBaselineRow) {
	if g.Injected != w.Injected {
		v.add("%s: injected %d vs baseline %d — workload generator changed, regenerate the baseline",
			tag, g.Injected, w.Injected)
	}
	v.band(tag, "served", g.Served, w.Served, 64, 0.10)
	v.band(tag, "migrated", g.Migrated, w.Migrated, 64, 0.25)
	v.band(tag, "migration-failed", g.MigrationFailed, w.MigrationFailed, 16, 0.25)
	if g.ZoneCrashes != w.ZoneCrashes {
		v.add("%s: zone crashes %d vs baseline %d — the pre-drawn zone schedule changed, regenerate the baseline",
			tag, g.ZoneCrashes, w.ZoneCrashes)
	}
	v.band(tag, "ejections", g.Ejections, w.Ejections, 2, 0.25)
}

var fleetZoneShifts = []shift{
	{"Injected", exact}, {"Served", inBandPast(0.10, 64)}, {"Migrated", inBandPast(0.25, 64)},
	{"MigrationFailed", inBandPast(0.25, 16)}, {"ZoneCrashes", exact}, {"Ejections", inBandPast(0.25, 2)},
}

// Quantum-adaptivity cell: the aggregate (design, policy) rows of the
// `ciexp quantum` figure over the baseline workloads. gateQuantum's
// acceptance gates — FeedbackPID beating the fixed quantum on p99.9
// gap error within the CI overhead budget — hold baseline or not.
func measureQuantumCell(t *testing.T, eng *engine.Engine) any {
	fig, errs, err := measureQuantum(eng, 1, baselineNames)
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) > 0 {
		t.Fatalf("quantum cells failed: %v", errs)
	}
	for _, v := range gateQuantum(fig, Inputs{}) {
		t.Errorf("quantum gate violation: %s", v)
	}
	if len(fig.Agg) == 0 {
		t.Fatal("no quantum aggregate rows measured")
	}
	return fig.Agg
}

func compareQuantum(got, want []quantumRow) []string {
	var v violations
	for i, g := range got {
		w := want[i]
		if g.Design != w.Design || g.Policy != w.Policy {
			v.add("row %d: %s/%s vs baseline %s/%s — baseline is stale, regenerate it",
				i, g.Design, g.Policy, w.Design, w.Policy)
			continue
		}
		tag := g.Design + "/" + g.Policy
		v.band(tag, "p99.9 gap error", g.P999Err, w.P999Err, 256, 0.25)
		v.band(tag, "fires", g.Fires, w.Fires, 64, 0.25)
		v.band(tag, "overruns", g.Overruns, w.Overruns, 64, 0.25)
		// Overhead regression = the delivery mechanism got pricier.
		if d := g.Overhead - w.Overhead; d > 0.02 {
			v.add("%s: overhead %.4f vs baseline %.4f (band +2 points)", tag, g.Overhead, w.Overhead)
		}
	}
	return v
}

// Overhead cells: one Figure 9 workload's (design, overhead) rows. A
// cell regresses when an overhead grows by more than 10%, plus a small
// absolute floor so near-zero overheads don't trip on rounding.
func measureOverheadCell(name string) func(*testing.T, *engine.Engine) any {
	return func(t *testing.T, eng *engine.Engine) any {
		sel, err := workloadsByName([]string{name})
		if err != nil {
			t.Fatal(err)
		}
		fig := measureFigureOverheadSel(eng, 1, 1, baselineDesigns, sel)
		if len(fig.Errs) > 0 {
			t.Fatalf("sweep cells failed: %v", fig.Errs)
		}
		return fig.Rows[0]
	}
}

func compareOverhead(got, want []overheadRow) []string {
	var v violations
	for di, g := range got {
		w := want[di]
		if g.Design != w.Design {
			v.add("%s[%d]: design %v vs baseline %v — baseline is stale, regenerate it",
				g.Workload, di, g.Design, w.Design)
			continue
		}
		if g.Overhead > w.Overhead*1.10+0.002 {
			v.add("%s/%v regressed: overhead %.4f > baseline %.4f (+10%%)",
				g.Workload, g.Design, g.Overhead, w.Overhead)
		}
	}
	return v
}

// baselineFile is the layout of testdata/baseline.json.
type baselineFile struct {
	Version int                     `json:"version"`
	Cells   map[string]baselineCell `json:"cells"`
}

type baselineCell struct {
	Data json.RawMessage `json:"data"`
}

func readBaseline(t *testing.T) baselineFile {
	t.Helper()
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		t.Fatal(err)
	}
	var f baselineFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("%s: %v", baselinePath, err)
	}
	return f
}

// TestRegressionBaseline walks baselineRows on one engine. Under
// -update-baseline it records each fresh cell instead of comparing it
// and rewrites the file at the end.
func TestRegressionBaseline(t *testing.T) {
	file := readBaseline(t)
	eng := engine.New(0)
	for _, row := range baselineRows {
		t.Run(row.key, func(t *testing.T) {
			got, err := json.Marshal(row.measure(t, eng))
			if err != nil {
				t.Fatal(err)
			}
			if *updateBaseline {
				file.Cells[row.key] = baselineCell{got}
				return
			}
			want, ok := file.Cells[row.key]
			if !ok {
				t.Fatalf("baseline lacks cell %q; regenerate with -update-baseline", row.key)
			}
			for _, v := range row.compare(got, want.Data) {
				t.Error(v)
			}
		})
	}
	if !*updateBaseline {
		return
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err == nil {
		err = os.WriteFile(baselinePath, append(data, '\n'), 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("baseline rewritten: %s", baselinePath)
}

// A shift moves one gated field of a cell's first row by(its baseline
// value), just past the field's band.
type shift struct {
	field string
	by    func(want float64) float64
}

// exact moves a field that must reproduce exactly.
func exact(float64) float64 { return 1 }

// flipSign moves a field gated on being positive across zero.
func flipSign(w float64) float64 {
	if w > 0 {
		return -w
	}
	return 1
}

// past moves a field gated to ±d (or +d) just past d.
func past(d float64) func(float64) float64 {
	return func(float64) float64 { return d + 1e-6 }
}

// inBandPast moves a count just past violations.band's limit.
func inBandPast(relBand float64, floor int64) func(float64) float64 {
	return func(w float64) float64 { return float64(int64(w*relBand) + floor + 1) }
}

// Every gate can fail: each committed cell passes its own comparator,
// and the same cell with one gated field of its first row moved just
// past that field's band does not. No model runs.
func TestBaselineGatesCanFail(t *testing.T) {
	file := readBaseline(t)
	for _, row := range baselineRows {
		want, ok := file.Cells[row.key]
		if !ok {
			t.Errorf("baseline lacks cell %q", row.key)
			continue
		}
		if v := row.compare(want.Data, want.Data); len(v) > 0 {
			t.Errorf("%s: the committed cell fails its own comparator: %v", row.key, v)
		}
		if len(row.shifts) == 0 {
			t.Errorf("%s: no gated field is shifted", row.key)
		}
		for _, s := range row.shifts {
			if len(row.compare(shiftFirstRow(t, want.Data, s), want.Data)) == 0 {
				t.Errorf("%s: %s moved past its band, and the comparator passed it", row.key, s.field)
			}
		}
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
		{"interleave", func() []string { return gateInterleave(interleaveRows(0), slo) },
			func() []string { return gateInterleave(interleaveRows(1), slo) }},
	} {
		if v := tc.healthy(); len(v) > 0 {
			t.Errorf("%s: the healthy input fails its gate: %v", tc.gate, v)
		}
		if v := tc.bad(); len(v) == 0 {
			t.Errorf("%s: the gate passed its broken input", tc.gate)
		}
	}
}

// shiftFirstRow returns cell (one row or a list of rows) with s
// applied to its first row.
func shiftFirstRow(t *testing.T, cell []byte, s shift) []byte {
	t.Helper()
	var v any
	if err := json.Unmarshal(cell, &v); err != nil {
		t.Fatal(err)
	}
	row := v
	if rows, ok := v.([]any); ok {
		row = rows[0]
	}
	obj, ok := row.(map[string]any)
	if !ok {
		t.Fatalf("cell row is %T, want an object", row)
	}
	w, ok := obj[s.field].(float64)
	if !ok {
		t.Fatalf("cell has no numeric field %q", s.field)
	}
	moved := w + s.by(w)
	obj[s.field] = json.Number(strconv.FormatFloat(moved, 'f', -1, 64))
	if moved == math.Trunc(moved) {
		obj[s.field] = json.Number(strconv.FormatInt(int64(moved), 10))
	}
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return out
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
