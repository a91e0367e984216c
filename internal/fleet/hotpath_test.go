package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
)

// paretoDemandRef is the draw as first written: xm / w^(1/alpha) by
// math.Pow, truncated.
func paretoDemandRef(u float64) int64 {
	return int64(paretoXm / math.Pow(1-u*(1-paretoRatio), 1/paretoAlpha))
}

// paretoQuantile's cbrt form is w^(1/alpha) only for alpha = 1.5, so
// the draw must equal math.Pow's on the same uniform stream: 10 M
// seeded draws, each against a twin stream.
func TestParetoDemandMatchesPow(t *testing.T) {
	if paretoAlpha != 1.5 {
		t.Fatalf("paretoAlpha = %v: paretoQuantile computes w^(2/3) as cbrt(w*w), which only alpha = 1.5 allows", paretoAlpha)
	}
	const draws = 10_000_000
	for _, seed := range []uint64{1, 0x74656e616e74} {
		rng, twin := sim.NewRNG(seed), sim.NewRNG(seed)
		for i := 0; i < draws/2; i++ {
			if got, want := paretoDemand(rng), paretoDemandRef(twin.Float64()); got != want {
				t.Fatalf("seed %#x draw %d: demand %d, math.Pow %d", seed, i, got, want)
			}
		}
	}
}

// Bases whose quotient is an integer k, or one to three ulps of w
// either side of it, are where cbrt and Pow can truncate apart: each
// must take math.Pow's answer, and the fallback must have run.
func TestParetoQuantileNearIntegers(t *testing.T) {
	fallbacks, apart := 0, 0
	for k := paretoXm; k <= paretoH; k += 97 {
		w0 := math.Pow(paretoXm/k, paretoAlpha)
		for _, dir := range []float64{math.Inf(-1), math.Inf(1)} {
			w := w0
			for step := 0; step < 4; step++ {
				want := int64(paretoXm / math.Pow(w, 1/paretoAlpha))
				if got := paretoQuantile(w); got != want {
					t.Fatalf("k=%v w=%v: demand %d, math.Pow %d", k, w, got, want)
				}
				x := paretoXm / math.Cbrt(w*w)
				if nearInteger(x) {
					fallbacks++
				}
				if int64(x) != want {
					apart++
				}
				w = math.Nextafter(w, dir)
			}
		}
	}
	t.Logf("%d fallbacks, %d bases where cbrt alone would truncate apart from math.Pow", fallbacks, apart)
	if fallbacks == 0 || apart == 0 {
		t.Errorf("%d fallbacks over %d bases where the fallback matters; want both above 0", fallbacks, apart)
	}
}

// radixSort must leave every list as slices.Sort does: empty and
// single lists, all-equal values, duplicates, values needing one to
// six 11-bit digits (three and five passes end in the scratch and are
// copied back), and a list with a negative value, which takes
// slices.Sort itself.
func TestRadixSortMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	random := func(n int, bound int64) []int64 {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = rng.Int63n(bound)
		}
		return xs
	}
	cases := map[string][]int64{
		"empty":     {},
		"nil":       nil,
		"one":       {42},
		"zeros":     {0, 0, 0},
		"all-equal": {1 << 20, 1 << 20, 1 << 20, 1 << 20, 1 << 20},
		"dups":      {5, 3, 5, 1, 3, 5, 0, 1},
		"max":       {math.MaxInt64, 0, math.MaxInt64 - 1, 1 << 62, 7},
		"negative":  {3, -1, 2, math.MinInt64, 0},
	}
	for digits := 1; digits <= 6; digits++ {
		bound := int64(math.MaxInt64)
		if digits < 6 {
			bound = 1 << (11 * digits)
		}
		cases[fmt.Sprintf("%d digits", digits)] = random(5000, bound)
		cases[fmt.Sprintf("one %d-digit value", digits)] = append(random(300, 1<<11), bound-1)
	}
	cases["dups-wide"] = random(4000, 64)
	cases["2^33"] = append(random(1000, 1<<22), 1<<33, 1<<33+1)
	for name, xs := range cases {
		want := slices.Clone(xs)
		slices.Sort(want)
		got := slices.Clone(xs)
		radixSort(got, make([]int64, len(got)+3))
		if !slices.Equal(got, want) {
			t.Errorf("%s: radixSort differs from slices.Sort", name)
		}
	}
}
