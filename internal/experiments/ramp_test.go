package experiments

import (
	"testing"

	"repro/internal/ci/ciruntime"
	"repro/internal/engine"
	"repro/internal/overload"
)

const rampTestDuration = 26_000_000 // 10 ms of virtual time

// rampByKey indexes rows by (mult, admission).
func rampByKey(t *testing.T, rows []rampRow) map[[2]any]rampRow {
	t.Helper()
	m := make(map[[2]any]rampRow, len(rows))
	for _, r := range rows {
		m[[2]any{r.Mult, r.Admission}] = r
	}
	return m
}

func runRamp(t *testing.T, workers int) []rampRow {
	t.Helper()
	eng := &engine.Engine{Pool: engine.NewPool(workers)}
	rows, cellErrs := measureLoadRamp(eng, 7, rampTestDuration, nil, nil)
	if len(cellErrs) > 0 {
		t.Fatalf("ramp cells failed: %v", cellErrs)
	}
	if len(rows) != 2*len(rampMults) {
		t.Fatalf("got %d rows, want %d", len(rows), 2*len(rampMults))
	}
	return rows
}

// The issue's acceptance criterion: at 2x saturating load with
// admission enabled, P999 stays within 3x of its 0.8x value and
// goodput within 10% of capacity; with admission disabled the same
// sweep diverges. Deterministic across worker counts.
func TestRampAdmissionBoundsTailAndGoodput(t *testing.T) {
	rows := runRamp(t, 1)
	byKey := rampByKey(t, rows)
	under := byKey[[2]any{0.8, true}]
	atCap := byKey[[2]any{1.0, true}]
	over := byKey[[2]any{2.0, true}]

	if under.Res.P999Us <= 0 || over.Res.P999Us <= 0 {
		t.Fatal("missing latency samples")
	}
	if over.Res.P999Us > 3*under.Res.P999Us {
		t.Errorf("admission on: p99.9 at 2.0x = %.1fµs exceeds 3x the 0.8x value %.1fµs",
			over.Res.P999Us, under.Res.P999Us)
	}
	// Capacity is operational: what the admission-enabled system
	// achieves at exactly saturating load.
	capacity := atCap.Res.AchievedLoad
	if over.Res.AchievedLoad < 0.9*capacity {
		t.Errorf("admission on: goodput at 2.0x = %.0f/s below 90%% of capacity %.0f/s",
			over.Res.AchievedLoad, capacity)
	}
	// The excess must actually have been refused, not queued.
	if frac := over.Res.Overload.RejectFrac(); frac < 0.3 {
		t.Errorf("admission on at 2.0x rejected only %.1f%%, expected the overload excess", 100*frac)
	}
	// Brownout must have parked the miner under overload.
	if over.Res.Overload.MaxBrownout < 1 {
		t.Error("admission on at 2.0x never entered brownout")
	}
}

// With admission disabled the 2x tail is unbounded: far beyond the 3x
// envelope, and still growing when the run is extended — the backlog
// feedback loop (poll cost grows with queue length, which grows the
// poll period, which grows the queue) never converges above capacity.
func TestRampNoAdmissionDiverges(t *testing.T) {
	rows := runRamp(t, 1)
	byKey := rampByKey(t, rows)
	under := byKey[[2]any{0.8, false}]
	over := byKey[[2]any{2.0, false}]
	if over.Res.P999Us <= 3*under.Res.P999Us {
		t.Fatalf("admission off: p99.9 at 2.0x = %.1fµs did not blow past 3x the 0.8x value %.1fµs",
			over.Res.P999Us, under.Res.P999Us)
	}
	// Double the horizon: the tail keeps growing with run length
	// (unbounded growth), while the admission-enabled tail stays put.
	eng := &engine.Engine{Pool: engine.NewPool(1)}
	longRows, cellErrs := measureLoadRamp(eng, 7, 2*rampTestDuration, []float64{2.0}, nil)
	if len(cellErrs) > 0 {
		t.Fatalf("long ramp cells failed: %v", cellErrs)
	}
	longByKey := rampByKey(t, longRows)
	longOff := longByKey[[2]any{2.0, false}]
	longOn := longByKey[[2]any{2.0, true}]
	if longOff.Res.P999Us < 1.5*over.Res.P999Us {
		t.Errorf("admission off: p99.9 grew only %.1f -> %.1fµs when the run doubled; expected unbounded growth",
			over.Res.P999Us, longOff.Res.P999Us)
	}
	shortOn := byKey[[2]any{2.0, true}]
	if longOn.Res.P999Us > 1.5*shortOn.Res.P999Us {
		t.Errorf("admission on: p99.9 grew %.1f -> %.1fµs when the run doubled; expected a flat tail",
			shortOn.Res.P999Us, longOn.Res.P999Us)
	}
}

// Satellite guard for -quantum-policy: the ramp's SLO must hold no
// matter which handler-interval controller drives the CI runtime. Each
// adaptive policy (AIMD, feedback PID) is swept with admission on and
// judged against the same p99.9/reject guard as the fixed quantum; the
// run must also actually differ from the fixed-quantum run, proving
// the factory reached the poll loop rather than being dropped on the
// floor, and the soak's quick script must stay violation-free under
// the adaptive interval too.
func TestRampQuantumPoliciesHoldSLO(t *testing.T) {
	slo := overload.SLO{P999Us: 500, MaxRejectFrac: 0.1}
	eng := &engine.Engine{Pool: engine.NewPool(0)}
	fixed := runRamp(t, 1)
	policies := map[string]func() ciruntime.QuantumPolicy{
		"aimd":     func() ciruntime.QuantumPolicy { return &ciruntime.AIMD{} },
		"feedback": func() ciruntime.QuantumPolicy { return &ciruntime.FeedbackPID{} },
	}
	for name, factory := range policies {
		rows, cellErrs := measureLoadRamp(eng, 7, rampTestDuration, nil, factory)
		if len(cellErrs) > 0 {
			t.Fatalf("%s: ramp cells failed: %v", name, cellErrs)
		}
		if len(rows) != len(fixed) {
			t.Fatalf("%s: got %d rows, want %d", name, len(rows), len(fixed))
		}
		differs := false
		for i, r := range rows {
			if r != fixed[i] {
				differs = true
			}
			if !r.Admission {
				continue
			}
			if err := slo.Check(r.Res.P999Us, r.Res.Overload.RejectFrac(), rampExcess(r.Mult)); err != nil {
				t.Errorf("%s at %.1fx: SLO violated under adaptive quantum: %v", name, r.Mult, err)
			}
		}
		if !differs {
			t.Errorf("%s: sweep byte-identical to the fixed quantum — policy never reached the poll loop", name)
		}
		soakRows, soakErrs := runSoak(eng, 7, rampTestDuration, soakQuickPhases, factory)
		if len(soakErrs) > 0 {
			t.Fatalf("%s: soak cells failed: %v", name, soakErrs)
		}
		for _, r := range soakRows {
			if v := r.violations(slo); len(v) > 0 {
				t.Errorf("%s soak phase %d (%.1fx): %v", name, r.Phase, r.Mult, v)
			}
		}
	}
}

// The sweep is byte-identical at any pool worker count.
func TestRampDeterministicAcrossWorkers(t *testing.T) {
	serial := runRamp(t, 1)
	parallel := runRamp(t, 4)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("row %d differs between -workers 1 and 4:\n%+v\n%+v", i, serial[i], parallel[i])
		}
	}
}
