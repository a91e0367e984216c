package overload_test

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/mtcp"
	"repro/internal/overload"
	"repro/internal/shenango"
)

// TestAppOverloadPlane runs the plane inside the two apps that host
// it. With the plane on, a fault plan and load past capacity, two runs
// of one seed give byte-identical results and the plane makes
// admission decisions; with the plane off, the result carries no
// snapshot and nothing is shed. What each app does with the plane
// (shedding, retransmit deferral, miner parking, the breaker reset) is
// tested in its own package.
func TestAppOverloadPlane(t *testing.T) {
	for _, app := range []struct {
		name string
		// overloaded runs the app past capacity with the plane on and
		// a 1% fault plan; the result is comparable.
		overloaded func() (result any, s overload.Snapshot)
		// disabled runs it with the plane off under a 1% fault plan and
		// returns what a plane would have shed: mtcp's NACKs, or the
		// fraction of the run shenango's miner was parked.
		disabled func() (s overload.Snapshot, shed float64)
	}{
		{"mtcp",
			func() (any, overload.Snapshot) {
				r := mtcp.Run(mtcp.Config{
					Mode: mtcp.CI, Conns: 64, WorkCycles: 100_000, Adaptive: true, Seed: 5,
					FaultPlan: faults.Uniform(99, 0.01),
					Overload:  &overload.Config{DeadlineCycles: 2_000_000, TargetDelayCycles: 500_000},
				})
				return r, r.Overload
			},
			func() (overload.Snapshot, float64) {
				r := mtcp.Run(mtcp.Config{Mode: mtcp.CI, Conns: 32, Adaptive: true, FaultPlan: faults.Uniform(99, 0.01)})
				return r.Overload, float64(r.Rejects)
			}},
		{"shenango",
			func() (any, overload.Snapshot) {
				r := shenango.Run(shenango.Config{
					Kind: shenango.CIHosted, OfferedLoad: 4.3e6, Seed: 7, DurationCycles: 26_000_000,
					FaultPlan: faults.Uniform(99, 0.01),
					Overload:  &overload.Config{DeadlineCycles: 200_000},
				})
				return r, r.Overload
			},
			func() (overload.Snapshot, float64) {
				r := shenango.Run(shenango.Config{Kind: shenango.CIHosted, OfferedLoad: 200e3, Seed: 7,
					FaultPlan: faults.Uniform(7, 0.01)})
				return r.Overload, r.MinerShedFrac
			}},
	} {
		t.Run(app.name+"/deterministic", func(t *testing.T) {
			a, s := app.overloaded()
			if b, _ := app.overloaded(); a != b {
				t.Errorf("fault+overload runs differ:\n%+v\n%+v", a, b)
			}
			if s.Offered() == 0 {
				t.Error("overload plane saw no admission decisions")
			}
		})
		t.Run(app.name+"/disabled_inert", func(t *testing.T) {
			s, shed := app.disabled()
			if s != (overload.Snapshot{}) {
				t.Errorf("disabled plane left a snapshot: %+v", s)
			}
			if shed != 0 {
				t.Errorf("disabled plane shed %v", shed)
			}
		})
	}
}
