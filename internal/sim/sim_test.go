package sim

import (
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collide too often: %d/100", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	var sum float64
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / 10000; mean < 0.45 || mean > 0.55 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(9)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		counts[v]++
	}
	for d, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("digit %d count %d, want ~1000", d, c)
		}
	}
	if r.Intn(0) != 0 || r.Intn(-5) != 0 {
		t.Error("Intn of non-positive should be 0")
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(11)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := r.Exp(1000)
		if v < 1 {
			t.Fatalf("Exp returned %d < 1", v)
		}
		sum += float64(v)
	}
	mean := sum / n
	if mean < 900 || mean > 1100 {
		t.Errorf("Exp mean = %v, want ~1000", mean)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.At(10, func() { order = append(order, 11) }) // FIFO at equal times
	n := e.Run(100)
	if n != 4 {
		t.Fatalf("processed %d events", n)
	}
	want := []int{1, 11, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 100 {
		t.Errorf("Now = %d after Run(100)", e.Now())
	}
}

func TestEngineLimitStopsProcessing(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(200, func() { fired = true })
	e.Run(100)
	if fired {
		t.Error("event beyond limit fired")
	}
	e.Run(300)
	if !fired {
		t.Error("event did not fire after extending the limit")
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 10 {
			e.After(5, tick)
		}
	}
	e.After(5, tick)
	e.Run(1000)
	if count != 10 {
		t.Errorf("ticks = %d, want 10", count)
	}
	if e.Now() != 1000 {
		t.Errorf("Now = %d", e.Now())
	}
}

func TestEnginePastSchedulingClamped(t *testing.T) {
	e := NewEngine()
	var at int64 = -1
	e.At(50, func() {
		e.At(10, func() { at = e.Now() }) // in the past: clamp to now
	})
	e.Run(100)
	if at != 50 {
		t.Errorf("past event ran at %d, want clamped to 50", at)
	}
}

// A callback chain that reschedules itself with zero delay never
// advances virtual time; the deadline must convert that livelock into
// an error instead of spinning forever.
func TestRunDeadlineStopsLivelock(t *testing.T) {
	e := NewEngine()
	var spin func()
	spin = func() { e.After(0, spin) } // livelock: time never advances
	e.After(10, spin)
	n, err := e.RunDeadline(1000, Deadline{MaxSameTime: 500})
	if err != ErrNoProgress {
		t.Fatalf("err = %v, want ErrNoProgress", err)
	}
	if n < 500 {
		t.Errorf("processed %d events before the deadline, want ≥500", n)
	}
	if e.Now() != 10 {
		t.Errorf("Now = %d, want stuck at 10", e.Now())
	}
}

func TestRunDeadlineMaxEvents(t *testing.T) {
	e := NewEngine()
	var tick func()
	tick = func() { e.After(1, tick) } // unbounded but time-advancing
	e.After(1, tick)
	n, err := e.RunDeadline(1<<40, Deadline{MaxEvents: 1000})
	if err != ErrNoProgress {
		t.Fatalf("err = %v, want ErrNoProgress", err)
	}
	if n != 1000 {
		t.Errorf("processed %d events, want exactly 1000", n)
	}
}

func TestRunDeadlineCleanRunNoError(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.At(int64(i), func() { count++ })
	}
	n, err := e.RunDeadline(100, Deadline{MaxEvents: 1000, MaxSameTime: 100})
	if err != nil || n != 10 || count != 10 {
		t.Errorf("n=%d count=%d err=%v", n, count, err)
	}
	if e.Now() != 100 {
		t.Errorf("Now = %d", e.Now())
	}
}

// Many events at one instant are fine as long as they stay under the
// same-time bound; the counter must reset when time advances.
func TestRunDeadlineSameTimeResets(t *testing.T) {
	e := NewEngine()
	for step := int64(1); step <= 20; step++ {
		for i := 0; i < 50; i++ {
			e.At(step, func() {})
		}
	}
	if _, err := e.RunDeadline(100, Deadline{MaxSameTime: 60}); err != nil {
		t.Fatalf("bursts below the bound errored: %v", err)
	}
}

// Property: events always fire in non-decreasing time order.
func TestQuickEngineMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		r := NewRNG(uint64(seed))
		e := NewEngine()
		var last int64 = -1
		ok := true
		for i := 0; i < 50; i++ {
			e.At(r.Intn(1000), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
				if r.Float64() < 0.5 {
					e.After(r.Intn(100), func() {
						if e.Now() < last {
							ok = false
						}
						last = e.Now()
					})
				}
			})
		}
		e.Run(5000)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
