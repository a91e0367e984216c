package stats

import (
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
)

// The references below are the implementations this package shipped
// before it moved to math/bits, slices.Sort and the bounded Quantile
// scan, kept verbatim so the faster code is checked against what every
// committed number was computed with.

func leadingZerosRef(x uint64) int {
	n := 0
	for x&(1<<63) == 0 {
		x <<= 1
		n++
		if n == 64 {
			break
		}
	}
	return n
}

// quantileRef scans every bucket of both sides.
func quantileRef(h *LogHist, p float64) int64 {
	if h.total == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := int64(math.Ceil(p / 100 * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := logHistBuckets - 1; i >= 0; i-- {
		if c := h.neg[i]; c > 0 {
			seen += c
			if seen >= rank {
				return clamp(-logBucketLow(i), h.min, h.max)
			}
		}
	}
	for i := 0; i < logHistBuckets; i++ {
		if c := h.pos[i]; c > 0 {
			seen += c
			if seen >= rank {
				return clamp(logBucketLow(i), h.min, h.max)
			}
		}
	}
	return h.max
}

func sortedRef(xs []int64) []int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func summarizeRef(xs []int64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := sortedRef(xs)
	return Summary{
		N: len(s), Min: s[0], Max: s[len(s)-1],
		P1: PercentileSorted(s, 1), P10: PercentileSorted(s, 10), P25: PercentileSorted(s, 25),
		P50: PercentileSorted(s, 50), P75: PercentileSorted(s, 75), P90: PercentileSorted(s, 90),
		P99: PercentileSorted(s, 99), P999: PercentileSorted(s, 99.9),
		MeanVal: Mean(s),
	}
}

func TestLeadingZerosMatchesOldLoop(t *testing.T) {
	check := func(x uint64) {
		t.Helper()
		if got, want := bits.LeadingZeros64(x), leadingZerosRef(x); got != want {
			t.Fatalf("LeadingZeros64(%#x) = %d, old loop %d", x, got, want)
		}
	}
	check(0)
	for s := uint(0); s < 64; s++ {
		p := uint64(1) << s
		check(p - 1)
		check(p)
		check(p + 1)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10_000; i++ {
		check(rng.Uint64() >> uint(rng.Intn(64)))
	}
}

func TestBoundedQuantileMatchesFullScan(t *testing.T) {
	ps := []float64{-1, 0, 0.001, 1, 10, 25, 50, 75, 90, 99, 99.9, 99.999, 100, 101}
	check := func(name string, h *LogHist) {
		t.Helper()
		for _, p := range ps {
			if got, want := h.Quantile(p), quantileRef(h, p); got != want {
				t.Fatalf("%s: Quantile(%v) = %d, full scan %d (n=%d min=%d max=%d)",
					name, p, got, want, h.N(), h.Min(), h.Max())
			}
		}
	}
	check("empty", &LogHist{})
	for _, v := range []int64{0, 1, -1, 31, 32, -32, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64 + 1} {
		var h LogHist
		h.Add(v)
		check("single", &h)
	}
	rng := rand.New(rand.NewSource(11))
	draw := func() int64 { return rng.Int63n(1<<uint(1+rng.Intn(40))) + 1 }
	for trial := 0; trial < 300; trial++ {
		var h LogHist
		// 0 all-positive, 1 all-negative, 2 mixed, 3 mixed with zeros.
		shape := trial % 4
		for i, n := 0, 1+rng.Intn(400); i < n; i++ {
			v := draw()
			switch {
			case shape == 1, shape >= 2 && rng.Intn(2) == 0:
				v = -v
			}
			if shape == 3 && rng.Intn(8) == 0 {
				v = 0
			}
			h.Add(v)
		}
		check([]string{"positive", "negative", "mixed", "mixed+zero"}[shape], &h)
	}
}

func TestSortedPathsMatchSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		xs := make([]int64, 1+rng.Intn(3000))
		for i := range xs {
			xs[i] = rng.Int63n(2000) - 1000 // many duplicates, both signs
		}
		before := append([]int64(nil), xs...)
		if got, want := Summarize(xs), summarizeRef(xs); got != want {
			t.Fatalf("Summarize diverges from the sort.Slice reference:\n got  %+v\n want %+v", got, want)
		}
		ref := sortedRef(xs)
		for _, p := range []float64{0, 0.1, 1, 50, 99, 99.9, 100} {
			if got, want := Percentile(xs, p), PercentileSorted(ref, p); got != want {
				t.Fatalf("Percentile(%v) = %d, reference %d", p, got, want)
			}
		}
		for i := range xs {
			if xs[i] != before[i] {
				t.Fatal("Percentile/Summarize reordered their input")
			}
		}
	}
}
