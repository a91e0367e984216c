package obs_test

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestDisabledScopeIsNilAndInert(t *testing.T) {
	var s *obs.Scope
	if s.Enabled() {
		t.Fatal("the nil scope must be disabled")
	}
	// Every method must be a no-op on the nil receiver.
	s.Instant("c", "n", 0, 1)
	s.Span("c", "n", 0, 1, 2)
	s.Count("k", 1)
	s.Observe("h", 5)
	s.SiteHit("f", "b", true)
	s.Advance(100)
	if s.Tick() != 0 || s.Counter("k") != 0 || s.Hist("h") != nil ||
		s.Dropped() != 0 || s.Events() != nil || s.HotSites(0) != nil {
		t.Error("nil scope leaked state")
	}
}

// The tentpole's zero-cost-when-disabled property: calling the full
// observability surface on a disabled scope must not allocate. (Hot
// paths additionally guard with Enabled() so variadic args are never
// even built; this checks the layer itself stays allocation-free.)
func TestDisabledScopeAllocatesNothing(t *testing.T) {
	var s *obs.Scope
	n := testing.AllocsPerRun(1000, func() {
		s.Instant("vm", "probe-fire", 3, 42, obs.I("fired", 1))
		s.Span("vm", "handler", 3, 42, 99, obs.I("cost", 57), obs.S("fn", "main"))
		s.Count("vm/probes", 1)
		s.Observe("vm/handler_gap", 4980)
		s.SiteHit("main", "loop", true)
		s.Tick()
		s.Advance(100)
	})
	if n != 0 {
		t.Errorf("disabled scope allocated %.1f times per run, want 0", n)
	}
}

func TestRingWrapKeepsNewestAndCountsDropped(t *testing.T) {
	s := obs.New(4)
	for i := int64(1); i <= 7; i++ {
		s.Instant("c", "e", 0, i)
	}
	evs := s.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(4 + i); ev.TS != want {
			t.Errorf("event %d TS = %d, want %d (oldest-first)", i, ev.TS, want)
		}
	}
	if d := s.Dropped(); d != 3 {
		t.Errorf("dropped = %d, want 3", d)
	}
}

func TestCountersAndHistograms(t *testing.T) {
	s := obs.New(0)
	s.Count("a", 2)
	s.Count("a", 3)
	if v := s.Counter("a"); v != 5 {
		t.Errorf("counter = %d, want 5", v)
	}
	for i := int64(1); i <= 100; i++ {
		s.Observe("lat", i)
	}
	h := s.Hist("lat")
	if h == nil || h.N() != 100 {
		t.Fatalf("hist snapshot missing or wrong count: %v", h)
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Errorf("min/max = %d/%d", h.Min(), h.Max())
	}
	// The snapshot is a copy: further observations must not affect it.
	s.Observe("lat", 1000)
	if h.N() != 100 {
		t.Error("Hist returned a live reference, not a snapshot")
	}
}

func TestHotSitesOrderingAndTruncation(t *testing.T) {
	s := obs.New(0)
	for i := 0; i < 5; i++ {
		s.SiteHit("f1", "hot", i%2 == 0)
	}
	for i := 0; i < 3; i++ {
		s.SiteHit("f2", "warm", false)
	}
	s.SiteHit("f1", "cold", true)
	sites := s.HotSites(2)
	if len(sites) != 2 {
		t.Fatalf("got %d sites, want 2", len(sites))
	}
	if sites[0].Fn != "f1" || sites[0].Block != "hot" || sites[0].Hits != 5 || sites[0].Fired != 3 {
		t.Errorf("hottest site = %+v", sites[0])
	}
	if sites[1].Fn != "f2" || sites[1].Hits != 3 {
		t.Errorf("second site = %+v", sites[1])
	}
	if all := s.HotSites(0); len(all) != 3 {
		t.Errorf("HotSites(0) = %d sites, want all 3", len(all))
	}
}

func TestTickAdvanceMonotonic(t *testing.T) {
	s := obs.New(0)
	if a, b := s.Tick(), s.Tick(); b <= a {
		t.Errorf("ticks not increasing: %d then %d", a, b)
	}
	s.Advance(1000)
	if v := s.Tick(); v <= 1000 {
		t.Errorf("tick after Advance(1000) = %d", v)
	}
	s.Advance(5) // must not move the clock backwards
	if v := s.Tick(); v <= 1000 {
		t.Errorf("Advance moved the clock backwards: %d", v)
	}
}

func TestSpanClampsNegativeDuration(t *testing.T) {
	s := obs.New(0)
	s.Span("c", "n", 0, 100, 40)
	evs := s.Events()
	if len(evs) != 1 || evs[0].Dur != 0 {
		t.Errorf("events = %+v, want one span with dur 0", evs)
	}
}

func TestWriteMetricsReport(t *testing.T) {
	s := obs.New(0)
	s.Count("engine/cache_hit", 7)
	for i := int64(0); i < 1000; i++ {
		s.Observe("run/interval_error_cycles", i-500)
	}
	var sb strings.Builder
	if err := s.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"engine/cache_hit", "7", "run/interval_error_cycles", "p50", "p99"} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics report lacks %q:\n%s", want, out)
		}
	}
	// Disabled scope still writes a (trivial) report rather than failing.
	sb.Reset()
	if err := (*obs.Scope)(nil).WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "disabled") {
		t.Errorf("disabled metrics report = %q", sb.String())
	}
}

func TestWriteHotSites(t *testing.T) {
	s := obs.New(0)
	s.SiteHit("main", "loop", true)
	s.SiteHit("main", "loop", false)
	var sb strings.Builder
	if err := s.WriteHotSites(&sb, 10); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "main") || !strings.Contains(out, "loop") {
		t.Errorf("hot-sites table lacks the site:\n%s", out)
	}
}
