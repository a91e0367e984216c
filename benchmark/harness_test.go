package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/vm"
)

func TestMedianAndQuantile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 values = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 values = %v, want 2.5", got)
	}
	xs := []float64{50, 10, 40, 20, 30}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {0.25, 20}, {0.10, 14}, {0.5, 30}, {1, 50}} {
		if got := quantile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := quantile([]float64{7}, quietQuantile); got != 7 {
		t.Errorf("quantile of one value = %v, want 7", got)
	}
}

func TestWorse(t *testing.T) {
	lo := metricDef{Better: lower}
	hi := metricDef{Better: higher}
	if got := worse(lo, 10, 11); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("lower-is-better 10 -> 11: worse by %v, want 0.1", got)
	}
	if got := worse(hi, 10, 11); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("higher-is-better 10 -> 11: worse by %v, want -0.1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	const ms = time.Millisecond
	spans := []span{
		{Name: "core.Compile", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "ir.Clone", Start: 10 * ms, End: 40 * ms, Parent: 0},    // nested
		{Name: "ir.Verify", Start: 30 * ms, End: 60 * ms, Parent: 0},   // nested, overlaps the clone
		{Name: "opt.Module", Start: 90 * ms, End: 130 * ms, Parent: 0}, // nested, runs past the parent
		{Name: "analysis.Analyze", Start: 200 * ms, End: 220 * ms, Parent: 0, Detached: true},
		{Name: "cfg.Canonicalize", Start: 300 * ms, End: 350 * ms, Parent: 4, Detached: true}, // longer than its parent
	}
	got := selfTimes(spans)
	// 100 - union([10,60], [90,100]) - 20 detached = 100 - 60 - 20.
	want := []time.Duration{20 * ms, 30 * ms, 30 * ms, 40 * ms, 0, 50 * ms}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	shares := groupShares(spans, 0, 200*ms)
	// compiler: all six spans' self times, 170 ms of 200.
	if math.Abs(shares["compiler"]-0.85) > 1e-9 || shares["vm"] != 0 || shares["fleet"] != 0 {
		t.Errorf("group shares = %v", shares)
	}
}

func TestTracerNilAndRoundTrip(t *testing.T) {
	var off *tracer
	off.end(off.begin("ir.Parse", 0, -1, false)) // must not panic

	tr := newTracer()
	p := tr.begin("core.Compile/CI", 7, -1, false)
	c := tr.begin("ir.Clone", 7, p, true)
	tr.end(c)
	tr.end(p)
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := checkChromeTrace(buf.Bytes())
	if err != nil || n != 2 {
		t.Fatalf("checkChromeTrace = %d, %v; want 2 events", n, err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	ev := doc.TraceEvents[1]
	if ev.Name != "ir.Clone" || ev.Cat != "ir" || ev.Args["parent"] != float64(p) || ev.Args["req"] != float64(7) || ev.Args["detached"] != true {
		t.Errorf("event did not survive the round trip: %+v", ev)
	}
	for _, bad := range []string{`{`, `{"events":[]}`, `{"traceEvents":[{"name":"","ph":"X"}]}`, `{"traceEvents":[{"name":"a","ph":"XX"}]}`} {
		if _, err := checkChromeTrace([]byte(bad)); err == nil {
			t.Errorf("checkChromeTrace accepted %s", bad)
		}
	}
}

func TestAccount(t *testing.T) {
	same := repStat{units: 10, model: 1}
	if a, f := account([]repStat{same, same, same}, 28, 0); a != 84 || f != 0 {
		t.Errorf("clean run: attempted %d failed %d", a, f)
	}
	// One earlier rep disagrees with the verified rep, and two
	// operations of the verified rep failed their checks.
	if a, f := account([]repStat{same, {units: 10, model: 2}, same}, 28, 2); a != 84 || f != 30 {
		t.Errorf("attempted %d failed %d, want 84 and 30", a, f)
	}
}

// A wrong result planted in the outputs must count as exactly one
// failed operation, on either side of the tier-differential check.
func TestPlantedWrongResultFails(t *testing.T) {
	for _, tier := range []vm.Tier{vm.TierInterpreter, vm.TierCompiled} {
		in, err := setupVM(1, mini, tier)
		if err != nil {
			t.Fatal(err)
		}
		out := in.rep(nil)
		if failures, _ := in.verify(out); len(failures) != 0 {
			t.Fatalf("%v: clean run failed: %v", tier, failures)
		}
		out.([]runOut)[3].res.Returns[0]++
		if failures, _ := in.verify(out); len(failures) != 1 {
			t.Errorf("%v: planted wrong return value gave %d failures: %v", tier, len(failures), failures)
		}
	}
}

// Every input derives from the seed: another seed gives other inputs
// and other model results, and they still pass every check.
func TestSeedChangesInputs(t *testing.T) {
	for _, name := range []string{"compile_corpus", "fleet_soak"} {
		w := workloadByName(name)
		var digests [2]uint64
		var models [2]modelStats
		for i, seed := range []uint64{1, 2} {
			in, err := w.setup(seed, mini)
			if err != nil {
				t.Fatal(err)
			}
			out := in.rep(nil)
			if seed == 1 && in.stat(out) != in.stat(in.rep(nil)) {
				t.Errorf("%s seed %d: two reps differ", name, seed)
			}
			failures, model := in.verify(out)
			if len(failures) != 0 {
				t.Errorf("%s seed %d: %v", name, seed, failures)
			}
			if model.cyclesPerUnit <= 0 || model.tailCycles <= 0 {
				t.Errorf("%s seed %d: model metrics %+v must not be zero", name, seed, model)
			}
			digests[i], models[i] = in.digest(), model
		}
		if digests[0] == digests[1] {
			t.Errorf("%s: seeds 1 and 2 generate the same inputs", name)
		}
		if models[0] == models[1] {
			t.Errorf("%s: seeds 1 and 2 give the same model metrics %+v", name, models[0])
		}
	}
}

// The group probes measure exactly the per-layer metrics of their
// group.
func TestProbesFillTheirGroup(t *testing.T) {
	tr := newTracer()
	vals := map[string]float64{}
	corpus, err := setupCorpus(3, mini)
	if err != nil {
		t.Fatal(err)
	}
	if err := probeCompiler(tr, corpus, vals); err != nil {
		t.Fatal(err)
	}
	progs, err := setupVM(3, mini, vm.TierInterpreter)
	if err != nil {
		t.Fatal(err)
	}
	if err := probeVM(tr, progs, vals); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, d := range perLayer {
		if d.group != "compiler" && d.group != "vm" {
			continue
		}
		want++
		if v, ok := vals[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v (measured: %t)", d.Name, v, ok)
		}
	}
	if len(vals) != want {
		t.Errorf("probes measured %d metrics, the catalogue lists %d", len(vals), want)
	}
	if got := vals["vm.overhead_pct"]; got <= 0 || got > 100 {
		t.Errorf("vm.overhead_pct = %v, want a probe overhead between 0 and 100%%", got)
	}
}

// BENCHMARK.json repeats the harness's catalogue; the two must agree,
// and every name and unit must be one the driver accepts.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if len(doc.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(doc.Workloads), len(allWorkloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != allWorkloads[i].name || w.Why != allWorkloads[i].why {
			t.Errorf("workload %d: %+v, harness has %s: %s", i, w, allWorkloads[i].name, allWorkloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	compare := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, harness has %+v", kind, i, g, w)
			}
			if !name.MatchString(g.Name) || !unit.MatchString(g.Unit) || seen[g.Name] {
				t.Errorf("%s: bad or repeated name or unit: %+v", kind, g)
			}
			seen[g.Name] = true
			if g.Better != lower && g.Better != higher {
				t.Errorf("%s: better = %q", g.Name, g.Better)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd)
	compare("per_layer", doc.PerLayer, perLayer)
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if endToEnd[0].Name != "setup_s" {
		t.Errorf("first end-to-end metric is %s, want setup_s", endToEnd[0].Name)
	}
}
