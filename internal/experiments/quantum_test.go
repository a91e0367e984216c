package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
)

// quantumNames is the determinism subset: two workloads keep the sweep
// fast enough for every `go test` while still sharding across workers.
var quantumNames = []string{"radix", "histogram"}

// The adaptivity sweep must be deterministic at any worker count: every
// variant re-seeds the request-class stream, so the figure — rows,
// aggregates and rendered table — is byte-identical at -workers 1 vs N.
func TestQuantumWorkerDeterminism(t *testing.T) {
	var figs []*quantumFigure
	for _, workers := range []int{1, 4} {
		fig, errs, err := measureQuantum(engine.New(workers), 1, quantumNames)
		if err != nil {
			t.Fatal(err)
		}
		if len(errs) > 0 {
			t.Fatalf("workers=%d: quantum cells failed: %v", workers, errs)
		}
		figs = append(figs, fig)
	}
	if !reflect.DeepEqual(figs[0].Rows, figs[1].Rows) {
		t.Errorf("per-workload rows differ between workers=1 and workers=4:\n%v\nvs\n%v",
			figs[0].Rows, figs[1].Rows)
	}
	if !reflect.DeepEqual(figs[0].Agg, figs[1].Agg) {
		t.Errorf("aggregate rows differ between workers=1 and workers=4:\n%v\nvs\n%v",
			figs[0].Agg, figs[1].Agg)
	}
}

// Every variant of the figure must fire and produce steady-state gap
// samples — a variant with zero fires means its delivery mechanism
// never engaged and the comparison is vacuous.
func TestQuantumAllVariantsFire(t *testing.T) {
	fig, errs, err := measureQuantum(engine.New(0), 1, quantumNames)
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) > 0 {
		t.Fatalf("quantum cells failed: %v", errs)
	}
	for _, r := range fig.Agg {
		if r.Fires == 0 {
			t.Errorf("%s/%s: zero handler fires", r.Design, r.Policy)
		}
		if r.MeanGap <= 0 {
			t.Errorf("%s/%s: mean gap %.0f, want positive", r.Design, r.Policy, r.MeanGap)
		}
	}
	// The fixed policy and the interrupt designs never classify
	// overruns; the adaptive CI policies must have seen some at 2x load,
	// or the backoff paths went untested.
	for _, r := range fig.Agg {
		switch {
		case r.Policy == "fixed" || r.Policy == "-":
			if r.Overruns != 0 {
				t.Errorf("%s/%s: %d overruns from a policy-free variant", r.Design, r.Policy, r.Overruns)
			}
		case r.Design == "CI" && r.Policy == "aimd":
			if r.Overruns == 0 {
				t.Errorf("CI/aimd saw no overruns at %.1fx load", quantumLoadMult)
			}
		}
	}
}

// gateQuantum's gates, exercised on fabricated aggregates so both the
// passing and each failing direction are pinned without a full sweep.
func TestCheckQuantumGates(t *testing.T) {
	mk := func(fixedP999, fbP999 int64, fixedOvh, aimdOvh, fbOvh float64) *quantumFigure {
		return &quantumFigure{
			Workloads: []string{"w"},
			Agg: []quantumRow{
				{Design: "CI", Policy: "fixed", P999Err: fixedP999, Overhead: fixedOvh},
				{Design: "CI", Policy: "aimd", P999Err: fixedP999, Overhead: aimdOvh},
				{Design: "CI", Policy: "feedback", P999Err: fbP999, Overhead: fbOvh},
			},
		}
	}
	if bad := gateQuantum(mk(25000, 23000, 0.03, 0.03, 0.04), Inputs{}); len(bad) != 0 {
		t.Errorf("healthy figure flagged: %v", bad)
	}
	if bad := gateQuantum(mk(23000, 25000, 0.03, 0.03, 0.03), Inputs{}); len(bad) != 1 ||
		!strings.Contains(bad[0], "p99.9") {
		t.Errorf("regressed controller not flagged: %v", bad)
	}
	if bad := gateQuantum(mk(25000, 23000, 0.03, 0.08, 0.03), Inputs{}); len(bad) != 1 ||
		!strings.Contains(bad[0], "aimd") {
		t.Errorf("over-budget aimd row not flagged: %v", bad)
	}
	if bad := gateQuantum(&quantumFigure{}, Inputs{}); len(bad) != 1 {
		t.Errorf("empty sweep must report an ungateable figure: %v", bad)
	}
}
