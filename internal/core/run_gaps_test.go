package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ci/instrument"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// TestRunGapsGolden pins what Program.Run delivers at a 5,000-cycle
// interval under the CI design with its default IR/cycle ratio (the §4
// heuristic): for every Table-7 program at scale 1, its fires and the
// median steady gap (every gap but the first, which spans thread start
// to first fire). A change of the run's default ratio shows here
// program by program.
func TestRunGapsGolden(t *testing.T) {
	var b strings.Builder
	for _, wl := range workloads.All {
		prog, err := Compile(wl.Build(1), WithDesign(instrument.CI), WithProbeInterval(250))
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		res, err := prog.Run("main", WithInterval(5000), WithRecordIntervals(true))
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		gaps := res.Intervals[0]
		med := int64(0)
		if len(gaps) > 1 {
			med = stats.Median(gaps[1:])
		}
		fmt.Fprintf(&b, "%-18s fires=%-4d median_steady_gap=%d\n", wl.Name, res.Stats[0].HandlerCalls, med)
	}
	checkGolden(t, "run_gaps.golden", []byte(b.String()))
}
