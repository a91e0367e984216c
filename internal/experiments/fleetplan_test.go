package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// The `ciexp fleetplan` schedule dump is golden-tested: the plan is
// drawn from seeded injector streams, so its text is a pure function
// of (seed, replicas, zones, horizon, migrate) and any drift means
// either the stream layout or the rendering changed — both worth a
// deliberate -update.
func TestPrintFleetPlanGolden(t *testing.T) {
	var buf bytes.Buffer
	PrintFleetPlan(&buf, 1, 8, 4, 26_000_000, true)
	checkGolden(t, "fleet_plan.golden", buf.String())
}

// The zone and migration columns are structural, not incidental: every
// replica line carries its failure domain, the header reflects the
// migration mode, and the zone-outage schedule appears exactly when
// zones > 1.
func TestPrintFleetPlanZoneColumns(t *testing.T) {
	var zoned bytes.Buffer
	PrintFleetPlan(&zoned, 1, 8, 4, 26_000_000, true)
	out := zoned.String()
	if !strings.Contains(out, "migration on") {
		t.Errorf("migrate=true plan lacks the migration column:\n%s", out)
	}
	for _, want := range []string{"replica 0 (zone 0):", "replica 5 (zone 1):", "zone outage plan (4 zones"} {
		if !strings.Contains(out, want) {
			t.Errorf("zoned plan lacks %q:\n%s", want, out)
		}
	}

	var flat bytes.Buffer
	PrintFleetPlan(&flat, 1, 4, 1, 26_000_000, false)
	if s := flat.String(); strings.Contains(s, "zone outage plan") || !strings.Contains(s, "migration off") {
		t.Errorf("flat plan should omit the zone schedule and note migration off:\n%s", s)
	}
}
