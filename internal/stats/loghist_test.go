package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestLogHistExactBelowLinearRange(t *testing.T) {
	var h LogHist
	for v := int64(0); v < 32; v++ {
		h.Add(v)
	}
	if h.N() != 32 || h.Min() != 0 || h.Max() != 31 {
		t.Fatalf("n=%d min=%d max=%d", h.N(), h.Min(), h.Max())
	}
	// Values below logHistSub land in dedicated buckets, so quantiles
	// are exact: nearest-rank p50 of 0..31 is the 16th smallest, 15.
	if q := h.Quantile(50); q != 15 {
		t.Errorf("p50 = %d, want 15", q)
	}
	if q := h.Quantile(100); q != 31 {
		t.Errorf("p100 = %d, want 31", q)
	}
}

func TestLogHistNegativeValues(t *testing.T) {
	var h LogHist
	for v := int64(-100); v <= 100; v++ {
		h.Add(v)
	}
	if h.Min() != -100 || h.Max() != 100 {
		t.Fatalf("min=%d max=%d", h.Min(), h.Max())
	}
	if q := h.Quantile(50); q < -5 || q > 5 {
		t.Errorf("p50 = %d, want ~0", q)
	}
	if q := h.Quantile(1); q > -90 {
		t.Errorf("p1 = %d, want near -100", q)
	}
	if q := h.Quantile(99); q < 90 {
		t.Errorf("p99 = %d, want near 100", q)
	}
	if m := h.Mean(); m < -1 || m > 1 {
		t.Errorf("mean = %f, want 0", m)
	}
}

// The histogram's bucketing is log-scaled with 32 sub-buckets per
// octave, so any quantile is within ~3.2% relative error of the exact
// nearest-rank value.
func TestLogHistQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h LogHist
	vals := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-uniform over [1, ~1e9], mimicking latency-like data.
		v := int64(1) << uint(rng.Intn(30))
		v += rng.Int63n(v)
		h.Add(v)
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, p := range []float64{1, 10, 50, 90, 99, 99.9} {
		rank := int(p / 100 * float64(len(vals)))
		if rank >= len(vals) {
			rank = len(vals) - 1
		}
		exact := vals[rank]
		got := h.Quantile(p)
		relErr := float64(got-exact) / float64(exact)
		if relErr < 0 {
			relErr = -relErr
		}
		if relErr > 0.05 {
			t.Errorf("p%v = %d, exact %d (rel err %.3f)", p, got, exact, relErr)
		}
	}
}

func TestLogHistBucketRoundTrip(t *testing.T) {
	// logBucketLow(logBucket(v)) must never exceed v, and the bucket
	// width must stay within 1/32 of the value (one sub-bucket).
	for _, v := range []int64{0, 1, 31, 32, 33, 63, 64, 100, 1000, 1 << 20, 1<<40 + 12345} {
		idx := logBucket(v)
		low := logBucketLow(idx)
		if low > v {
			t.Errorf("bucketLow(%d) = %d > value", v, low)
		}
		if v >= 32 && float64(v-low) > float64(v)/32+1 {
			t.Errorf("bucket width too coarse at %d: low=%d", v, low)
		}
	}
}

func TestLogHistEmpty(t *testing.T) {
	var h LogHist
	if h.N() != 0 || h.Quantile(50) != 0 || h.Mean() != 0 {
		t.Errorf("empty hist not zero-valued: n=%d p50=%d mean=%f",
			h.N(), h.Quantile(50), h.Mean())
	}
}

// Add sits on handler-fire and per-request paths, so it must stay off
// the heap.
func TestLogHistAddDoesNotAllocate(t *testing.T) {
	var h LogHist
	v := int64(-5000)
	if n := testing.AllocsPerRun(1000, func() { h.Add(v); v += 37 }); n != 0 {
		t.Fatalf("LogHist.Add allocates %v objects per call, want 0", n)
	}
}

// LogHistQuantile must answer exactly as a LogHist fed the same
// samples: over random windows of every size class the breaker sees
// (n = 1 up to a spill-sized few hundred), all-negative, mixed and
// all-positive, with values in the exact region (|v| < 32) and the log
// region, and at every p the controllers and summaries ask for plus
// the out-of-range ones, one so small that p/100·n underflows, and NaN.
func TestLogHistQuantileMatchesHistogram(t *testing.T) {
	ps := []float64{-5, 0, 5e-324, 0.001, 1, 10, 50, 90, 99, 99.9, 99.999, 100, 250, math.NaN()}
	check := func(name string, xs []int64) {
		t.Helper()
		var h LogHist
		for _, v := range xs {
			h.Add(v)
		}
		for _, p := range ps {
			got := LogHistQuantile(append([]int64(nil), xs...), p)
			if want := h.Quantile(p); got != want {
				t.Fatalf("%s %v: LogHistQuantile(p=%v) = %d, LogHist.Quantile = %d", name, xs, p, got, want)
			}
		}
	}
	check("empty", nil)
	for _, v := range []int64{0, 1, -1, 31, 32, -32, 33, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64 + 1} {
		check("single", []int64{v})
	}
	rng := rand.New(rand.NewSource(58))
	draw := func() int64 {
		if rng.Intn(3) == 0 {
			return rng.Int63n(logHistSub) // exact region
		}
		return rng.Int63n(1<<uint(1+rng.Intn(50))) + 1
	}
	for trial := 0; trial < 4000; trial++ {
		// 0 all-positive, 1 all-negative, 2 mixed.
		shape := trial % 3
		n := 1 + rng.Intn(8)
		if trial%10 == 0 {
			n = 1 + rng.Intn(300)
		}
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = draw()
			if shape == 1 || shape == 2 && rng.Intn(2) == 0 {
				xs[i] = -xs[i]
			}
		}
		check([]string{"positive", "negative", "mixed"}[shape], xs)
	}
}
