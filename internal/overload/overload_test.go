package overload

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/stats"
)

// A nil controller is the disabled plane: everything admits, nothing
// panics, the snapshot stays zero.
func TestNilControllerIsDisabledPlane(t *testing.T) {
	var c *Controller
	if c.Enabled() {
		t.Fatal("nil controller reports enabled")
	}
	c.Poll(1000, 50_000)
	if v := c.Admit(2000, Request{Arrival: 0, EstDelayCycles: 1 << 40, Prio: Low}); v != Admit {
		t.Fatalf("nil controller verdict = %v, want admit", v)
	}
	if !c.StartOrExpire(1<<40, 0, 0) {
		t.Fatal("nil controller expired a request")
	}
	c.Observe(3000, 10, true)
	c.NoteDeferred()
	if err := c.Invariants(0); err != nil {
		t.Fatal(err)
	}
	if s := c.Snapshot(); s != (Snapshot{}) {
		t.Fatalf("nil controller snapshot non-zero: %+v", s)
	}
	if c.BrownoutLevel() != 0 || c.BreakerState() != Closed || c.PeriodEstCycles() != 0 {
		t.Fatal("nil controller state not at rest")
	}
}

func TestTokenBucketCapsAdmittedRate(t *testing.T) {
	// 1 request per 1000 cycles, burst 4: a burst admits 4, then the
	// refill governs.
	c := New(&Config{RatePerCycle: 1.0 / 1000, Burst: 4})
	admitted := 0
	for i := 0; i < 10; i++ {
		if c.Admit(0, Request{}).Admitted() {
			admitted++
		}
	}
	if admitted != 4 {
		t.Fatalf("burst admitted %d, want 4", admitted)
	}
	// 10k cycles later: 10 tokens accrued, capped at burst 4... the cap
	// applies to the bucket, so exactly 4 more admit.
	admitted = 0
	for i := 0; i < 10; i++ {
		if c.Admit(10_000, Request{}).Admitted() {
			admitted++
		}
	}
	if admitted != 4 {
		t.Fatalf("post-refill admitted %d, want 4 (burst cap)", admitted)
	}
	s := c.Snapshot()
	if s.RejectedRate != 12 || s.Admitted != 8 {
		t.Fatalf("snapshot %+v, want 8 admitted / 12 rate-rejected", s)
	}
}

func TestDoomedRequestsRejectedAtAdmission(t *testing.T) {
	c := New(&Config{DeadlineCycles: 100_000})
	// Estimated completion 150k past an arrival deadline of 100k: doomed.
	if v := c.Admit(50_000, Request{Arrival: 0, EstDelayCycles: 100_000}); v != RejectDoomed {
		t.Fatalf("verdict %v, want reject-doomed", v)
	}
	// Within deadline: admitted.
	if v := c.Admit(50_000, Request{Arrival: 0, EstDelayCycles: 40_000}); v != Admit {
		t.Fatalf("verdict %v, want admit", v)
	}
}

func TestCoDelEntersAndExitsDropping(t *testing.T) {
	cfg := &Config{TargetDelayCycles: 10_000, WindowCycles: 100_000}
	c := New(cfg)
	now := int64(0)
	poll := func(delay int64) {
		now += 8000
		c.Poll(now, delay)
	}
	// Below target: no drops ever.
	for i := 0; i < 20; i++ {
		poll(5000)
		if v := c.Admit(now, Request{EstDelayCycles: 5000}); v != Admit {
			t.Fatalf("dropped below target: %v", v)
		}
	}
	// Above target for more than one window: dropping starts.
	dropped := 0
	for i := 0; i < 40; i++ {
		poll(50_000)
		if v := c.Admit(now, Request{EstDelayCycles: 50_000}); v == RejectCoDel {
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("CoDel never dropped under sustained over-target delay")
	}
	// Recovery: one below-target poll exits dropping.
	poll(1000)
	if v := c.Admit(now, Request{EstDelayCycles: 1000}); v != Admit {
		t.Fatalf("still dropping after recovery: %v", v)
	}
	if c.Snapshot().RejectedCoDel != int64(dropped) {
		t.Fatalf("codel tally mismatch: %d vs %d", c.Snapshot().RejectedCoDel, dropped)
	}
}

// The breaker must trip on a bad window, reject while open, half-open
// after the cooldown, and close after successful probes.
func TestBreakerLifecycle(t *testing.T) {
	var transitions []string
	cfg := &Config{
		WindowCycles: 100_000,
		Breaker:      BreakerConfig{ErrFracTrip: 0.5, MinSamples: 4, CooldownCycles: 400_000, HalfOpenProbes: 2},
		OnStateChange: func(from, to State, now int64) {
			transitions = append(transitions, from.String()+">"+to.String())
		},
	}
	c := New(cfg)
	now := int64(0)
	// A window full of failures trips it at the next rotation.
	for i := 0; i < 8; i++ {
		c.Observe(now, 1000, true)
	}
	now += 100_001
	c.Poll(now, 0)
	if c.BreakerState() != Open {
		t.Fatalf("state %v after bad window, want open", c.BreakerState())
	}
	if v := c.Admit(now, Request{}); v != RejectBreaker {
		t.Fatalf("open breaker verdict %v", v)
	}
	// Cooldown elapses: half-open, two probes pass, breaker closes.
	now += 400_001
	c.Poll(now, 0)
	if c.BreakerState() != HalfOpen {
		t.Fatalf("state %v after cooldown, want half-open", c.BreakerState())
	}
	for i := 0; i < 2; i++ {
		if v := c.Admit(now, Request{}); v != Admit {
			t.Fatalf("half-open probe %d rejected: %v", i, v)
		}
	}
	if v := c.Admit(now, Request{}); v != RejectBreaker {
		t.Fatalf("extra half-open request admitted: %v", v)
	}
	c.Observe(now, 500, false)
	c.Observe(now, 500, false)
	if c.BreakerState() != Closed {
		t.Fatalf("state %v after successful probes, want closed", c.BreakerState())
	}
	if got := strings.Join(transitions, " "); got != "closed>open open>half-open half-open>closed" {
		t.Fatalf("transitions: %s", got)
	}
	if c.Snapshot().BreakerTrips != 1 {
		t.Fatalf("trips = %d, want 1", c.Snapshot().BreakerTrips)
	}
}

// A window's p99 is what a stats.LogHist of its successes reports,
// whether the window stays inline or spills into the histogram, and a
// spilled window leaves nothing behind: every window is checked
// against a fresh LogHist. The breaker never judges (MinSamples is out
// of reach), so it stays Closed and records every window.
func TestBreakerWindowP99MatchesLogHist(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := New(&Config{WindowCycles: 1000, Breaker: BreakerConfig{MinSamples: 1 << 40}})
	now := int64(0)
	for w := 0; w < 2000; w++ {
		var ref stats.LogHist
		for i, n := 0, rng.Intn(3*winCap); i < n; i++ {
			lat := rng.Int63n(1 << uint(1+rng.Intn(30)))
			failed := rng.Intn(5) == 0
			c.Observe(now, lat, failed)
			if !failed {
				ref.Add(lat)
			}
		}
		if got, want := c.breaker.p99(), ref.Quantile(99); got != want {
			t.Fatalf("window %d (%d successes): p99 %d, LogHist %d", w, ref.N(), got, want)
		}
		now += 1000
		c.Poll(now, 0)
	}
}

// One slow success trips the latency gate from an inline window and
// from a spilled one alike; the same windows without it do not.
func TestBreakerLatencyTrip(t *testing.T) {
	for _, n := range []int{winCap - 2, winCap, winCap + 1, 3 * winCap} {
		for _, slow := range []bool{false, true} {
			c := New(&Config{WindowCycles: 1000, Breaker: BreakerConfig{MinSamples: 3, LatencyP99Cycles: 10_000}})
			for i := 0; i < n; i++ {
				c.Observe(0, 500+int64(i), false)
			}
			if slow {
				c.Observe(0, 50_000, false)
			}
			c.Poll(1000, 0)
			if tripped := c.BreakerState() == Open; tripped != slow {
				t.Errorf("%d fast successes, slow %v: tripped %v", n, slow, tripped)
			}
		}
	}
}

// A failed half-open probe reopens the breaker for a fresh cooldown.
func TestBreakerReopensOnFailedProbe(t *testing.T) {
	c := New(&Config{
		WindowCycles: 100_000,
		Breaker:      BreakerConfig{MinSamples: 2, CooldownCycles: 200_000},
	})
	for i := 0; i < 4; i++ {
		c.Observe(0, 1000, true)
	}
	c.Poll(100_001, 0)
	c.Poll(300_002, 0) // cooldown over: half-open
	if c.BreakerState() != HalfOpen {
		t.Fatalf("state %v, want half-open", c.BreakerState())
	}
	c.Observe(300_002, 1000, true)
	if c.BreakerState() != Open {
		t.Fatalf("state %v after failed probe, want open", c.BreakerState())
	}
	if c.Snapshot().BreakerTrips != 2 {
		t.Fatalf("trips = %d, want 2", c.Snapshot().BreakerTrips)
	}
}

func TestBrownoutLevelsAndLowPrioShedding(t *testing.T) {
	c := New(&Config{TargetDelayCycles: 10_000})
	c.Poll(1000, 5000)
	if c.BrownoutLevel() != 0 {
		t.Fatalf("level %d at low delay", c.BrownoutLevel())
	}
	c.Poll(2000, 25_000) // > 2x target
	if c.BrownoutLevel() != 1 {
		t.Fatalf("level %d, want 1", c.BrownoutLevel())
	}
	// Level 1 sheds nothing yet.
	if v := c.Admit(2000, Request{Prio: Low}); v != Admit {
		t.Fatalf("low-prio shed at level 1: %v", v)
	}
	c.Poll(3000, 100_000) // > 6x target
	if c.BrownoutLevel() != 2 {
		t.Fatalf("level %d, want 2", c.BrownoutLevel())
	}
	if v := c.Admit(3000, Request{Prio: Low}); v != ShedLowPrio {
		t.Fatalf("low-prio not shed at level 2: %v", v)
	}
	if v := c.Admit(3000, Request{Prio: High}); v != Admit {
		t.Fatalf("high-prio shed: %v", v)
	}
	// Recovery steps back down with hysteresis.
	c.Poll(4000, 9000)
	c.Poll(5000, 9000)
	if c.BrownoutLevel() != 0 {
		t.Fatalf("level %d after recovery, want 0", c.BrownoutLevel())
	}
	if c.Snapshot().MaxBrownout != 2 {
		t.Fatalf("max brownout %d, want 2", c.Snapshot().MaxBrownout)
	}
}

func TestStartOrExpireEnforcesDeadlineDiscipline(t *testing.T) {
	c := New(&Config{DeadlineCycles: 50_000})
	const slack = 8000
	if v := c.Admit(0, Request{Arrival: 0, EstDelayCycles: 1000}); v != Admit {
		t.Fatal(v)
	}
	if !c.StartOrExpire(50_000+slack, 50_000, slack) {
		t.Fatal("start within slack expired")
	}
	if v := c.Admit(0, Request{Arrival: 0, EstDelayCycles: 1000}); v != Admit {
		t.Fatal(v)
	}
	if c.StartOrExpire(50_000+slack+1, 50_000, slack) {
		t.Fatal("start past deadline+slack served")
	}
	s := c.Snapshot()
	if s.Started != 1 || s.Expired != 1 {
		t.Fatalf("snapshot %+v, want 1 started / 1 expired", s)
	}
	if err := c.Invariants(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Invariants(3); err == nil {
		t.Fatal("invariants accepted bogus in-flight count")
	}
}

func TestPriorityOf(t *testing.T) {
	want := []Priority{High, High, High, Low, High, High, High, Low}
	for i, w := range want {
		if got := PriorityOf(int64(i)); got != w {
			t.Fatalf("PriorityOf(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestSLOCheck(t *testing.T) {
	slo := SLO{P999Us: 100, MaxRejectFrac: 0.05}
	if err := slo.Check(90, 0.04, 0); err != nil {
		t.Fatalf("healthy run violated SLO: %v", err)
	}
	if err := slo.Check(150, 0.01, 0); err == nil {
		t.Fatal("tail violation not caught")
	}
	if err := slo.Check(90, 0.30, 0); err == nil {
		t.Fatal("reject violation not caught")
	}
	// At 2x overload the unavoidable excess is 0.5: 52% rejects pass.
	if err := slo.Check(90, 0.52, 0.5); err != nil {
		t.Fatalf("excess-adjusted rejects flagged: %v", err)
	}
	if err := (SLO{}).Check(1e9, 1, 0); err != nil {
		t.Fatalf("zero SLO must check nothing: %v", err)
	}
}

// The whole plane is a pure function of its inputs: replaying an
// identical decision trace yields identical verdicts and snapshots.
func TestControllerDeterministic(t *testing.T) {
	run := func() ([]Verdict, Snapshot) {
		c := New(&Config{
			RatePerCycle: 1.0 / 5000, Burst: 8,
			DeadlineCycles: 80_000, TargetDelayCycles: 10_000, WindowCycles: 50_000,
			Breaker: BreakerConfig{MinSamples: 4, ErrFracTrip: 0.3},
		})
		var vs []Verdict
		now := int64(0)
		for i := 0; i < 500; i++ {
			now += 2000
			delay := int64((i % 37) * 2500)
			c.Poll(now, delay)
			v := c.Admit(now, Request{Arrival: now - delay, EstDelayCycles: delay, Prio: PriorityOf(int64(i))})
			vs = append(vs, v)
			if v.Admitted() {
				if c.StartOrExpire(now+delay/2, now-delay+80_000, 2000) {
					c.Observe(now+delay, delay+1000, i%11 == 0)
				}
			}
		}
		return vs, c.Snapshot()
	}
	v1, s1 := run()
	v2, s2 := run()
	if s1 != s2 {
		t.Fatalf("snapshots differ:\n%+v\n%+v", s1, s2)
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("verdict %d differs: %v vs %v", i, v1[i], v2[i])
		}
	}
	if s1.Offered() != 500 {
		t.Fatalf("offered %d, want 500", s1.Offered())
	}
}

// everyBranchConfig is the controller driveEveryBranch is written for.
func everyBranchConfig(sc *obs.Scope) *Config {
	return &Config{
		Name: "app", RatePerCycle: 1.0 / 1000, Burst: 2,
		DeadlineCycles: 50_000, TargetDelayCycles: 10_000, WindowCycles: 100_000,
		Breaker: BreakerConfig{MinSamples: 4, CooldownCycles: 200_000, HalfOpenProbes: 2},
		Obs:     sc,
	}
}

// driveEveryBranch walks a fresh everyBranchConfig controller through
// every emitting branch of the plane.
func driveEveryBranch(c *Controller) {
	// Rate, doomed and low-priority verdicts; brownout up to level 2.
	c.Poll(1000, 2000)
	c.Admit(1000, Request{Arrival: 1000})
	c.Admit(1000, Request{Arrival: 1000})
	c.Admit(1000, Request{Arrival: 1000})
	c.Admit(1000, Request{Arrival: 0, EstDelayCycles: 60_000})
	c.Poll(2000, 25_000)
	c.Poll(3000, 100_000)
	c.Admit(4000, Request{Arrival: 4000, Prio: Low})
	// CoDel: a full window above target enters dropping, recovery exits.
	c.Poll(110_000, 30_000)
	c.Admit(120_000, Request{Arrival: 120_000, EstDelayCycles: 20_000})
	c.Poll(130_000, 1000)
	// Expiry and deferral.
	c.StartOrExpire(200_000, 100_000, 1000)
	c.NoteDeferred()
	// Breaker: trip, reject, two half-open probes close it; a second
	// trip, then a failed probe reopens.
	for i := 0; i < 8; i++ {
		c.Observe(210_000, 1000, true)
	}
	c.Poll(240_000, 0)
	c.Admit(250_000, Request{Arrival: 250_000})
	c.Poll(450_000, 0)
	c.Admit(450_000, Request{Arrival: 450_000})
	c.Admit(450_000, Request{Arrival: 450_000})
	c.Observe(460_000, 500, false)
	c.Observe(460_000, 500, false)
	for i := 0; i < 8; i++ {
		c.Observe(470_000, 1000, true)
	}
	c.Poll(580_000, 0)
	c.Poll(800_000, 0)
	c.Observe(810_000, 1000, true)
}

// The controller emits its accounting onto the obs scope: every
// counter, histogram and event of a run that takes each verdict, walks
// the brownout levels, enters and leaves CoDel dropping, expires,
// defers, and trips, probes, closes and reopens the breaker. The want
// text was printed by the commit before the names were precomputed in
// New, so a name that drifts from "<Config.Name>/<suffix>" fails here.
func TestObsCountersEmitted(t *testing.T) {
	sc := obs.New(0)
	driveEveryBranch(New(everyBranchConfig(sc)))

	var b strings.Builder
	if err := sc.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	b.WriteString("# events\n")
	for _, ev := range sc.Events() {
		fmt.Fprintf(&b, "%c %s %s @%d+%d", ev.Ph, ev.Cat, ev.Name, ev.TS, ev.Dur)
		for _, a := range ev.Args[:ev.NArg] {
			if a.IsStr {
				fmt.Fprintf(&b, " %s=%s", a.Key, a.Str)
			} else {
				fmt.Fprintf(&b, " %s=%d", a.Key, a.Val)
			}
		}
		b.WriteString("\n")
	}
	const want = `# counters
app/admit                                4
app/breaker_trips                        3
app/brownout_transitions                 7
app/codel_exits                          1
app/deferred                             1
app/expired                              1
app/reject-breaker                       1
app/reject-codel                         1
app/reject-doomed                        1
app/reject-rate                          1
app/shed-lowprio                         1
# histograms
name                                              n        min        p50        p90        p99        max         mean
app/queue_delay_cycles                            9          0        992      98304      98304     100000      17555.6
# events
i overload app/brownout @2000+0 from=0 to=1
i overload app/brownout @3000+0 from=1 to=2
i overload app/brownout @130000+0 from=2 to=0
X overload app/breaker-closed @0+240000
i overload app/breaker @240000+0 from=closed to=open
i overload app/brownout @240000+0 from=0 to=2
X overload app/breaker-open @240000+210000
i overload app/breaker @450000+0 from=open to=half-open
i overload app/brownout @450000+0 from=2 to=0
X overload app/breaker-half-open @450000+10000
i overload app/breaker @460000+0 from=half-open to=closed
X overload app/breaker-closed @460000+120000
i overload app/breaker @580000+0 from=closed to=open
i overload app/brownout @580000+0 from=0 to=2
X overload app/breaker-open @580000+220000
i overload app/breaker @800000+0 from=open to=half-open
i overload app/brownout @800000+0 from=2 to=0
X overload app/breaker-half-open @800000+10000
i overload app/breaker @810000+0 from=half-open to=open
`
	if got := b.String(); got != want {
		t.Fatalf("obs emission changed:\n got:\n%s\nwant:\n%s", got, want)
	}
}
