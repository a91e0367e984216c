package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestPercentileBasics(t *testing.T) {
	xs := []int64{5, 1, 4, 2, 3}
	if got := Median(xs); got != 3 {
		t.Errorf("median = %d, want 3", got)
	}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %d, want 1", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %d, want 5", got)
	}
	if got := Percentile(xs, 20); got != 1 {
		t.Errorf("p20 = %d, want 1", got)
	}
	// Input must not be reordered.
	if xs[0] != 5 || xs[4] != 3 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentilePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Percentile(nil, 50)
}

func TestMeans(t *testing.T) {
	if got := Mean([]int64{2, 4, 6}); got != 4 {
		t.Errorf("mean = %v", got)
	}
	if got := GeoMean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-9 {
		t.Errorf("geomean = %v, want 4", got)
	}
	if got := GeoMean([]float64{0, -3}); got != 0 {
		t.Errorf("geomean of nonpositives = %v, want 0", got)
	}
	if got := MedianF([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("medianf even = %v", got)
	}
	if got := MedianF([]float64{7, 1, 3}); got != 3 {
		t.Errorf("medianf odd = %v", got)
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = int64(i + 1) // 1..1000
	}
	s := Summarize(xs)
	if s.N != 1000 || s.Min != 1 || s.Max != 1000 {
		t.Errorf("summary = %+v", s)
	}
	if s.P50 != 500 || s.P90 != 900 || s.P999 != 999 {
		t.Errorf("percentiles = p50 %d p90 %d p999 %d", s.P50, s.P90, s.P999)
	}
	if math.Abs(s.MeanVal-500.5) > 1e-9 {
		t.Errorf("mean = %v", s.MeanVal)
	}
	if s.String() == "" {
		t.Error("empty String")
	}
	if z := Summarize(nil); z.N != 0 {
		t.Errorf("empty summary = %+v", z)
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		m := int(n%100) + 1
		xs := make([]int64, m)
		for i := range xs {
			xs[i] = r.Int63n(10000) - 5000
		}
		prev := Percentile(xs, 0)
		for p := 5.0; p <= 100; p += 5 {
			cur := Percentile(xs, p)
			if cur < prev {
				return false
			}
			prev = cur
		}
		s := Summarize(xs)
		return s.Min <= s.P50 && s.P50 <= s.P90 && s.P90 <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The rank rule every percentile of a sorted list goes through.
func TestNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want int
	}{
		{10, 0, 1},
		{10, -5, 1},
		{10, 100, 10},
		{10, 250, 10},
		{1000, 99.9, 999}, // 99.9/100*1000 is 999.0000000000001 in float64
		{1000, 99, 990},
		{1000, 50, 500},
		{1000, 0.01, 1}, // ceil(0.1) = 1
		{1, 0, 1},
		{1, 50, 1},
		{1, 99.9, 1},
		{1, 100, 1},
		{3, 50, 2},
	} {
		if got := nearestRank(tc.n, tc.p); got != tc.want {
			t.Errorf("nearestRank(%d, %v) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
}

// Property: the cross-list percentile is PercentileSorted of the
// merged list, over lists with ties, singletons, empty lists and
// values of both signs up to the int64 extremes.
func TestPercentileSortedListsMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ps := []float64{-1, 0, 0.1, 1, 25, 50, 90, 99, 99.9, 99.99, 100, 120}
	for trial := 0; trial < 3000; trial++ {
		lists := make([][]int64, rng.Intn(9))
		var all []int64
		spread := []int64{1, 3, 1000, math.MaxInt64}[rng.Intn(4)]
		for i := range lists {
			var l []int64
			switch rng.Intn(4) {
			case 0: // an empty tenant
			case 1:
				l = []int64{rng.Int63n(spread)}
			default:
				l = make([]int64, rng.Intn(300))
				for k := range l {
					l[k] = rng.Int63n(spread)
					if spread == math.MaxInt64 && rng.Intn(2) == 0 {
						l[k] = -l[k] - 1 // reaches math.MinInt64
					}
				}
			}
			slices.Sort(l)
			lists[i] = l
			all = append(all, l...)
		}
		if len(all) == 0 {
			continue
		}
		slices.Sort(all)
		for _, p := range ps {
			if got, want := PercentileSortedLists(lists, p), PercentileSorted(all, p); got != want {
				t.Fatalf("trial %d: p%v over %d lists of %d samples = %d, merged list says %d",
					trial, p, len(lists), len(all), got, want)
			}
		}
	}
}

func TestPercentileSortedListsPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	PercentileSortedLists([][]int64{nil, {}}, 50)
}
