// Package stats provides the small statistical toolkit used by the
// evaluation harness: percentiles, means, geometric means and compact
// distribution summaries.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Percentile returns the p-th percentile (0..100) of xs using
// nearest-rank on a sorted copy. It panics on an empty slice.
func Percentile(xs []int64, p float64) int64 {
	if len(xs) == 0 {
		panic("stats: percentile of empty slice")
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return PercentileSorted(s, p)
}

// PercentileSorted is Percentile over a non-empty slice the caller has
// already sorted ascending: no copy and no sort, so several
// percentiles of one list cost one sort between them.
func PercentileSorted(s []int64, p float64) int64 {
	return s[nearestRank(len(s), p)-1]
}

// PercentileSortedLists is PercentileSorted of the ascending merge of
// lists, each sorted ascending, without building the merge: it returns
// the least value v that at least nearestRank of the samples do not
// exceed, found by bisecting the value range and counting with one
// binary search per list. Empty lists are allowed; it panics when every
// list is empty.
func PercentileSortedLists(lists [][]int64, p float64) int64 {
	n := 0
	var lo, hi int64
	for _, l := range lists {
		if len(l) == 0 {
			continue
		}
		if n == 0 || l[0] < lo {
			lo = l[0]
		}
		if n == 0 || l[len(l)-1] > hi {
			hi = l[len(l)-1]
		}
		n += len(l)
	}
	if n == 0 {
		panic("stats: percentile of empty lists")
	}
	rank := nearestRank(n, p)
	// Invariant: fewer than rank samples are below lo, and at least
	// rank are at most hi.
	for lo < hi {
		mid := lo + int64(uint64(hi-lo)/2) // hi-lo may overflow int64
		atMost := 0
		for _, l := range lists {
			i, _ := slices.BinarySearch(l, mid+1) // mid < hi: no overflow
			atMost += i
		}
		if atMost >= rank {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// nearestRank is the 1-based rank of the p-th percentile (0..100) of n
// sorted samples: ceil(p/100·n), at least 1; p <= 0 is the minimum and
// p >= 100 the maximum.
func nearestRank(n int, p float64) int {
	if p <= 0 {
		return 1
	}
	if p >= 100 {
		return n
	}
	// The epsilon guards against float artifacts like 99.9/100*1000
	// evaluating to 999.0000000000001.
	return max(int(math.Ceil(p/100*float64(n)-1e-9)), 1)
}

// Median returns the 50th percentile.
func Median(xs []int64) int64 { return Percentile(xs, 50) }

// Mean returns the arithmetic mean.
func Mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of positive values; zero and
// negative inputs are skipped.
func GeoMean(xs []float64) float64 {
	var logSum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			logSum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// MedianF returns the median of float64 values.
func MedianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Summary captures the distribution percentiles the paper reports
// (Figure 10: median with 10-90 spread and labeled outer percentiles).
type Summary struct {
	N                   int
	Min, Max            int64
	P1, P10, P25, P50   int64
	P75, P90, P99, P999 int64
	MeanVal             float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []int64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return Summary{
		N:       len(s),
		Min:     s[0],
		Max:     s[len(s)-1],
		P1:      PercentileSorted(s, 1),
		P10:     PercentileSorted(s, 10),
		P25:     PercentileSorted(s, 25),
		P50:     PercentileSorted(s, 50),
		P75:     PercentileSorted(s, 75),
		P90:     PercentileSorted(s, 90),
		P99:     PercentileSorted(s, 99),
		P999:    PercentileSorted(s, 99.9),
		MeanVal: Mean(s),
	}
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%d p10=%d p50=%d p90=%d p99=%d p99.9=%d max=%d mean=%.1f",
		s.N, s.Min, s.P10, s.P50, s.P90, s.P99, s.P999, s.Max, s.MeanVal)
}

// logHistSub is the number of linear sub-buckets per octave of a
// LogHist: values below logHistSub are counted exactly; above it the
// relative bucket width is 1/logHistSub (~3% quantile error).
const logHistSub = 32

// logHistBuckets is one side's bucket count: 59 octaves (5..63) of
// logHistSub sub-buckets on top of the exact region.
const logHistBuckets = 59*logHistSub + logHistSub

// LogHist is a log-scaled histogram over signed int64 samples: log2
// octaves refined by linear sub-buckets (HDR-histogram style), with a
// mirrored negative side and exact min/max tracking. It is the
// fixed-footprint accumulator behind the observability layer's
// p50/p90/p99/max metrics — Add is O(1) and allocation-free, so it can
// sit on handler-fire paths, unlike Summarize which retains every
// sample.
type LogHist struct {
	pos, neg [logHistBuckets]int64
	total    int64
	sum      float64
	min, max int64
}

// logBucket maps v >= 0 to its bucket index. Values below logHistSub
// map exactly to themselves; larger values map to
// (octave-5)*32 + top-6-bits, giving ~3% resolution.
func logBucket(v int64) int {
	if v < logHistSub {
		return int(v)
	}
	b := 63 - bits.LeadingZeros64(uint64(v)) // floor(log2 v), >= 5
	return (b-5)*logHistSub + int(v>>uint(b-5))
}

// logBucketLow returns the smallest value mapping to bucket idx.
func logBucketLow(idx int) int64 {
	if idx < 2*logHistSub {
		return int64(idx)
	}
	shift := idx/logHistSub - 1
	sub := idx - shift*logHistSub
	return int64(sub) << uint(shift)
}

// Add records one sample.
func (h *LogHist) Add(v int64) {
	if h.total == 0 || v < h.min {
		h.min = v
	}
	if h.total == 0 || v > h.max {
		h.max = v
	}
	h.total++
	h.sum += float64(v)
	if v < 0 {
		h.neg[logBucket(-v)]++
		return
	}
	h.pos[logBucket(v)]++
}

// N returns the number of recorded samples.
func (h *LogHist) N() int64 { return h.total }

// Min and Max return the exact extremes of the recorded samples (0 on
// an empty histogram).
func (h *LogHist) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

func (h *LogHist) Max() int64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Mean returns the exact arithmetic mean of the recorded samples.
func (h *LogHist) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Quantile returns the p-th percentile (0..100) by nearest rank over
// the buckets, reporting a bucket's lower edge. The extremes are
// exact: p<=0 returns Min, p>=100 returns Max, and interior answers
// are clamped into [Min, Max]. Returns 0 on an empty histogram.
func (h *LogHist) Quantile(p float64) int64 {
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
	// Only the buckets between the extremes can be occupied, so the
	// scan starts at min's bucket and stops at max's. Negative side
	// first, from most negative upward.
	if h.min < 0 {
		last := 0
		if h.max < 0 {
			last = logBucket(-h.max)
		}
		for i := logBucket(-h.min); i >= last; i-- {
			if c := h.neg[i]; c > 0 {
				seen += c
				if seen >= rank {
					return clamp(-logBucketLow(i), h.min, h.max)
				}
			}
		}
	}
	if h.max >= 0 {
		first := 0
		if h.min > 0 {
			first = logBucket(h.min)
		}
		for i, last := first, logBucket(h.max); i <= last; i++ {
			if c := h.pos[i]; c > 0 {
				seen += c
				if seen >= rank {
					return clamp(logBucketLow(i), h.min, h.max)
				}
			}
		}
	}
	return h.max
}

// LogHistQuantile returns what LogHist.Quantile(p) returns once every
// sample of xs has been added, without building the histogram: the
// nearest-rank sample's bucket lower edge, clamped to [min, max], with
// p<=0 the minimum, p>=100 the maximum and 0 for no samples. It sorts
// xs in place, so it suits a window of a few samples, where clearing
// a LogHist would cost more than the sort.
func LogHistQuantile(xs []int64, p float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	lo, hi := xs[0], xs[len(xs)-1]
	if p <= 0 {
		return lo
	}
	if p >= 100 {
		return hi
	}
	rank := int64(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 { // p is NaN, or p/100·n underflows to 0
		rank = 1
	}
	v := xs[rank-1] // rank <= len(xs): p < 100 rounds p/100 below 1
	if v < 0 {
		return clamp(-logBucketLow(logBucket(-v)), lo, hi)
	}
	return clamp(logBucketLow(logBucket(v)), lo, hi)
}

func clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// String renders the histogram's headline quantiles on one line.
func (h *LogHist) String() string {
	return fmt.Sprintf("n=%d min=%d p50=%d p90=%d p99=%d max=%d mean=%.1f",
		h.N(), h.Min(), h.Quantile(50), h.Quantile(90), h.Quantile(99), h.Max(), h.Mean())
}
