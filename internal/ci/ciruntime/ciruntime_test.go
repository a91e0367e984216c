package ciruntime

import "testing"

func TestRegisterAndFireIR(t *testing.T) {
	rt := New()
	var calls []uint64
	id := rt.RegisterCI(100, func(d uint64) { calls = append(calls, d) }) // 400 IR at 4 IR/cy
	if id == 0 {
		t.Fatal("ciid must be nonzero")
	}
	now := int64(0)
	// 10 probes of 100 IR each: expect fires at >400 IR boundaries.
	for i := 0; i < 10; i++ {
		now += 25
		rt.ProbeIR(100, now)
	}
	if len(calls) != 2 {
		t.Fatalf("fires = %d, want 2 (1000 IR / 400 IR-interval, firing past the threshold)", len(calls))
	}
	for _, d := range calls {
		if d < 400 || d > 600 {
			t.Errorf("handler delta = %d, want ~500", d)
		}
	}
	if rt.Fires(id) != 2 {
		t.Errorf("Fires = %d", rt.Fires(id))
	}
}

func TestSingleHandlerFastPathMatchesSlowPath(t *testing.T) {
	run := func(extra bool) int64 {
		rt := New()
		var fires int64
		rt.RegisterCI(50, func(uint64) { fires++ })
		if extra {
			// Second handler with a huge interval forces the slow path
			// without contributing fires.
			rt.RegisterCI(1<<40, func(uint64) { t.Error("huge-interval handler fired") })
		}
		for i := 0; i < 1000; i++ {
			rt.ProbeIR(10, int64(i))
		}
		return fires
	}
	if a, b := run(false), run(true); a != b {
		t.Errorf("fast path fires %d, slow path %d", a, b)
	}
}

func TestDisableEnableNesting(t *testing.T) {
	rt := New()
	fires := 0
	id := rt.RegisterCI(10, func(uint64) { fires++ })
	rt.Disable(id)
	rt.Disable(id)
	for i := 0; i < 100; i++ {
		rt.ProbeIR(100, int64(i))
	}
	if fires != 0 {
		t.Fatalf("disabled handler fired %d times", fires)
	}
	rt.Enable(id)
	rt.ProbeIR(100, 1000)
	if fires != 0 {
		t.Fatal("handler fired with one of two disables still active")
	}
	if rt.Enabled(id) {
		t.Error("Enabled should be false")
	}
	rt.Enable(id)
	rt.ProbeIR(100, 1001)
	if fires != 1 {
		t.Fatalf("fires = %d after full enable, want 1", fires)
	}
}

func TestGlobalDisable(t *testing.T) {
	rt := New()
	fires := 0
	rt.RegisterCI(10, func(uint64) { fires++ })
	rt.Disable(0)
	for i := 0; i < 10; i++ {
		rt.ProbeIR(1000, int64(i))
	}
	if fires != 0 {
		t.Fatal("global disable ignored")
	}
	rt.Enable(0)
	rt.ProbeIR(1000, 100)
	if fires != 1 {
		t.Fatalf("fires = %d after global enable", fires)
	}
}

func TestDeregister(t *testing.T) {
	rt := New()
	fires := 0
	id := rt.RegisterCI(10, func(uint64) { fires++ })
	rt.ProbeIR(1000, 1)
	rt.Deregister(id)
	before := fires
	rt.ProbeIR(1000, 2)
	rt.ProbeIR(1000, 3)
	if fires != before {
		t.Errorf("deregistered handler fired")
	}
}

func TestHandlerSelfDisabledDuringExecution(t *testing.T) {
	rt := New()
	depth, maxDepth := 0, 0
	rt.RegisterCI(1, func(uint64) {
		depth++
		if depth > maxDepth {
			maxDepth = depth
		}
		// A probe from "inside" the handler must not re-enter.
		rt.ProbeIR(10000, 99)
		depth--
	})
	rt.ProbeIR(10000, 1)
	if maxDepth != 1 {
		t.Errorf("handler re-entered: depth %d", maxDepth)
	}
}

func TestMultipleHandlersDifferentIntervals(t *testing.T) {
	rt := New()
	var fast, slow int
	rt.RegisterCI(100, func(uint64) { fast++ })  // 400 IR
	rt.RegisterCI(1000, func(uint64) { slow++ }) // 4000 IR
	now := int64(0)
	for i := 0; i < 400; i++ {
		now += 25
		rt.ProbeIR(100, now)
	}
	// 40000 IR total: fast ≈ 40000/400 = 100 (minus rounding), slow ≈ 10.
	if fast < 60 || fast > 100 {
		t.Errorf("fast fires = %d, want ~80-100", fast)
	}
	if slow < 7 || slow > 10 {
		t.Errorf("slow fires = %d, want ~9-10", slow)
	}
	if fast < 5*slow {
		t.Errorf("fast (%d) should fire ~10x slow (%d)", fast, slow)
	}
}

// probeCycles runs one whole CI-Cycles probe as the VM does: the
// untaken check, then the taken half when the check passes.
func probeCycles(rt *Runtime, inc, now int64) (reads, fired int) {
	if !rt.ProbeCyclesDue(inc, now) {
		return 0, 0
	}
	return rt.FireDueCycles(now)
}

func TestProbeCyclesFiresOnElapsedCycles(t *testing.T) {
	rt := New()
	fires := 0
	rt.RecordIntervals = true
	id := rt.RegisterCI(1000, func(uint64) { fires++ })
	now := int64(0)
	reads := 0
	// IR advances much faster than the IR/cycle heuristic predicts
	// (e.g. stalls): pure IR would fire early; CI-Cycles must not.
	for i := 0; i < 1000; i++ {
		now += 10 // 10 cycles per 100 IR: "slow" code
		r, _ := probeCycles(rt, 100, now)
		reads += r
	}
	if fires != 10 {
		t.Errorf("fires = %d, want 10 (10000 cycles / 1000)", fires)
	}
	if reads == 0 || reads == 1000 {
		t.Errorf("cycle reads = %d; the IR gate should skip most probes but not all", reads)
	}
	for _, gap := range rt.Intervals(id) {
		if gap < 1000 {
			t.Errorf("CI-Cycles fired early: gap %d < 1000", gap)
		}
	}
}

func TestProbeEventThreshold(t *testing.T) {
	rt := New()
	fires := 0
	rt.EventsPerInterval = func(int64) int64 { return 5 }
	rt.RegisterCI(1000, func(uint64) { fires++ })
	for i := 0; i < 23; i++ {
		rt.ProbeEvent(1, int64(i))
	}
	if fires != 4 {
		t.Errorf("fires = %d, want 4 (23 events / threshold 5)", fires)
	}
}

func TestProbeEventCycles(t *testing.T) {
	rt := New()
	fires := 0
	rt.RegisterCI(100, func(uint64) { fires++ })
	now := int64(0)
	totalReads := 0
	for i := 0; i < 50; i++ {
		now += 30
		r, _ := rt.ProbeEventCycles(now)
		totalReads += r
	}
	if totalReads != 50 {
		t.Errorf("CnB-Cycles must read the counter on every event; reads = %d", totalReads)
	}
	// Events land every 30 cycles, so fires happen every ceil(100/30)=4
	// events = 120 cycles: 1500/120 = 12.
	if fires < 11 || fires > 15 {
		t.Errorf("fires = %d, want ~12", fires)
	}
}

func TestIntervalsRecorded(t *testing.T) {
	rt := New()
	rt.RecordIntervals = true
	id := rt.RegisterCI(25, func(uint64) {})
	now := int64(0)
	for i := 0; i < 100; i++ {
		now += 25
		rt.ProbeIR(100, now)
	}
	ivs := rt.Intervals(id)
	if len(ivs) == 0 {
		t.Fatal("no intervals recorded")
	}
	for _, g := range ivs[1:] {
		if g <= 0 {
			t.Errorf("non-positive gap %d", g)
		}
	}
}

func TestNoHandlersCheap(t *testing.T) {
	rt := New()
	for i := 0; i < 10; i++ {
		if rt.ProbeIR(1000, int64(i)) != 0 {
			t.Fatal("fired without handlers")
		}
		if r, f := probeCycles(rt, 1000, int64(i)); r != 0 || f != 0 {
			t.Fatal("cycle probe active without handlers")
		}
	}
}

func TestDeregisterMiddleHandlerKeepsOthers(t *testing.T) {
	rt := New()
	var a, b, c int
	ida := rt.RegisterCI(10, func(uint64) { a++ })
	idb := rt.RegisterCI(10, func(uint64) { b++ })
	idc := rt.RegisterCI(10, func(uint64) { c++ })
	rt.ProbeIR(1000, 1)
	rt.Deregister(idb)
	rt.ProbeIR(1000, 2)
	rt.ProbeIR(1000, 3)
	if a != 3 || c != 3 {
		t.Errorf("surviving handlers fired a=%d c=%d, want 3/3", a, c)
	}
	if b != 1 {
		t.Errorf("deregistered handler fired %d times, want 1 (before removal)", b)
	}
	if rt.Fires(ida) != 3 || rt.Fires(idc) != 3 || rt.Fires(idb) != 0 {
		t.Errorf("Fires bookkeeping wrong: %d %d %d", rt.Fires(ida), rt.Fires(idb), rt.Fires(idc))
	}
}

func TestUnknownCiidIsHarmless(t *testing.T) {
	rt := New()
	fires := 0
	rt.RegisterCI(10, func(uint64) { fires++ })
	rt.Disable(999)
	rt.Enable(999)
	rt.Deregister(999)
	if rt.Enabled(999) {
		t.Error("unknown ciid reported enabled")
	}
	if rt.Fires(999) != 0 {
		t.Error("unknown ciid has fires")
	}
	rt.ProbeIR(1000, 1)
	if fires != 1 {
		t.Errorf("real handler affected by unknown-ciid calls: %d", fires)
	}
}

func TestReRegisterAfterDeregisterGetsFreshID(t *testing.T) {
	rt := New()
	id1 := rt.RegisterCI(10, func(uint64) {})
	rt.Deregister(id1)
	id2 := rt.RegisterCI(10, func(uint64) {})
	if id1 == id2 {
		t.Errorf("ciid reused: %d", id1)
	}
	if !rt.Enabled(id2) {
		t.Error("fresh handler not enabled")
	}
}

// Deep disable nesting must require exactly as many enables, and
// global and per-handler counts must nest independently.
func TestDisableEnableDeepNestingAndIndependence(t *testing.T) {
	rt := New()
	fires := 0
	id := rt.RegisterCI(10, func(uint64) { fires++ })
	const depth = 50
	for i := 0; i < depth; i++ {
		rt.Disable(id)
		rt.Disable(0)
	}
	for i := 0; i < depth; i++ {
		rt.Enable(id)
		rt.ProbeIR(1000, int64(i))
		if fires != 0 {
			t.Fatalf("fired with per-handler disable depth %d remaining", depth-i-1)
		}
	}
	// Per-handler count fully unwound; global still holds it off.
	rt.ProbeIR(1000, 100)
	if fires != 0 {
		t.Fatal("fired with global disable active")
	}
	for i := 0; i < depth-1; i++ {
		rt.Enable(0)
	}
	rt.ProbeIR(1000, 200)
	if fires != 0 {
		t.Fatal("fired with one global disable remaining")
	}
	rt.Enable(0)
	rt.ProbeIR(1000, 300)
	if fires != 1 {
		t.Fatalf("fires = %d after full unwind, want 1", fires)
	}
	// Extra enables must not drive counts negative: one Disable must
	// still suppress.
	rt.Enable(id)
	rt.Enable(0)
	rt.Disable(id)
	rt.ProbeIR(1000, 400)
	if fires != 1 {
		t.Fatal("over-enabled handler ignored a fresh Disable")
	}
}

// A handler that deregisters a later handler of the same probe sweep
// must prevent that handler from firing: the sweep may already hold a
// reference, so Deregister marks it gone rather than just compacting
// the list. Regression: the old in-place compaction also corrupted
// the sweep's iteration, double-firing surviving handlers.
func TestDeregisterWhileHandlerPending(t *testing.T) {
	rt := New()
	var idB, idC int
	var aFired, bFired, cFired int
	rt.RegisterCI(10, func(uint64) {
		aFired++
		if aFired == 1 {
			rt.Deregister(idB)
		}
	})
	idB = rt.RegisterCI(10, func(uint64) { bFired++ })
	idC = rt.RegisterCI(10, func(uint64) { cFired++ })
	// One probe far past every threshold: A fires first and removes B
	// while B and C are still pending in the same sweep.
	rt.ProbeIR(1000, 1)
	if bFired != 0 {
		t.Errorf("deregistered-while-pending handler fired %d times", bFired)
	}
	if aFired != 1 || cFired != 1 {
		t.Errorf("survivors fired a=%d c=%d, want 1/1", aFired, cFired)
	}
	rt.ProbeIR(1000, 2)
	if bFired != 0 || cFired != 2 {
		t.Errorf("after next sweep: b=%d c=%d", bFired, cFired)
	}
	if rt.Fires(idC) != 2 {
		t.Errorf("Fires(c) = %d", rt.Fires(idC))
	}
}

// A handler deregistering itself mid-execution must not fire again.
func TestDeregisterSelfInsideHandler(t *testing.T) {
	rt := New()
	fires := 0
	var id int
	id = rt.RegisterCI(10, func(uint64) {
		fires++
		rt.Deregister(id)
	})
	for i := 0; i < 5; i++ {
		rt.ProbeIR(1000, int64(i))
	}
	if fires != 1 {
		t.Errorf("self-deregistered handler fired %d times", fires)
	}
}

// The AIMD overrun path: gaps beyond the overrun factor double the
// interval up to the cap; consecutive on-time fires re-tighten it back
// to the registered value.
func TestAdaptiveBackoffAndRetighten(t *testing.T) {
	rt := New()
	id := rt.RegisterCI(1000, func(uint64) {}) // 4000 IR at 4 IR/cy
	rt.SetPolicy(id, &AIMD{})                  // defaults: 2x factor, 8x cap, 4 fires
	if rt.CurrentInterval(id) != 1000 {
		t.Fatalf("initial interval = %d", rt.CurrentInterval(id))
	}
	now := int64(0)
	fireAfterGap := func(gap int64) {
		now += gap
		// One big probe advance fires the handler at the chosen time.
		rt.ProbeIR(1<<30, now)
	}
	fireAfterGap(1000) // first fire: no meaningful gap yet
	// Three overruns: 5x the interval each time.
	wantIntervals := []int64{2000, 4000, 8000}
	for i, want := range wantIntervals {
		fireAfterGap(5 * rt.CurrentInterval(id))
		if got := rt.CurrentInterval(id); got != want {
			t.Fatalf("after overrun %d: interval = %d, want %d", i+1, got, want)
		}
	}
	if rt.Overruns(id) != 3 {
		t.Errorf("Overruns = %d, want 3", rt.Overruns(id))
	}
	// Keep overrunning: the cap (8x base) must hold.
	for i := 0; i < 5; i++ {
		fireAfterGap(5 * rt.CurrentInterval(id))
	}
	if got := rt.CurrentInterval(id); got != 8000 {
		t.Errorf("interval = %d, want capped at 8000", got)
	}
	// On-time fires re-tighten additively (base/8 = 125 per 4 fires)
	// all the way back to the registered interval, never below.
	for i := 0; i < 8000/125*4*2; i++ {
		fireAfterGap(rt.CurrentInterval(id))
	}
	if got := rt.CurrentInterval(id); got != 1000 {
		t.Errorf("interval = %d after sustained on-time fires, want back at 1000", got)
	}
}

// Without a quantum policy the interval must never move, whatever the gaps.
func TestNoAdaptationWithoutOptIn(t *testing.T) {
	rt := New()
	id := rt.RegisterCI(1000, func(uint64) {})
	now := int64(0)
	for i := 0; i < 20; i++ {
		now += 50_000
		rt.ProbeIR(1<<30, now)
	}
	if got := rt.CurrentInterval(id); got != 1000 {
		t.Errorf("non-adaptive interval moved to %d", got)
	}
	if rt.Overruns(id) != 0 {
		t.Errorf("overruns counted without adaptation: %d", rt.Overruns(id))
	}
}

// Adaptation must also gate the CI-Cycles probe path, which compares
// elapsed cycles against the (now adaptive) interval directly.
func TestAdaptiveAppliesToProbeCycles(t *testing.T) {
	rt := New()
	fires := 0
	id := rt.RegisterCI(1000, func(uint64) { fires++ })
	rt.SetPolicy(id, &AIMD{})
	now := int64(0)
	for i := 0; i < 6; i++ {
		now += 10_000 // every fire is 10x the target: overruns
		probeCycles(rt, 100_000, now)
	}
	if rt.Overruns(id) == 0 {
		t.Error("no overruns detected on the cycles path")
	}
	if rt.CurrentInterval(id) <= 1000 {
		t.Errorf("interval did not back off: %d", rt.CurrentInterval(id))
	}
	if got, cap := rt.CurrentInterval(id), int64(8000); got > cap {
		t.Errorf("interval %d beyond cap %d", got, cap)
	}
}

func TestNonPositiveIntervalClamped(t *testing.T) {
	rt := New()
	fires := 0
	rt.RegisterCI(0, func(uint64) { fires++ })
	rt.ProbeIR(10, 1)
	if fires == 0 {
		t.Error("zero-interval registration never fires")
	}
}
