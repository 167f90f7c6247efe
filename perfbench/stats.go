package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailCandidates are the percentiles tail considers, highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// median returns the middle of xs (the mean of the two middle values
// for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rank is the 1-based nearest-rank position of percentile p among n
// samples. The epsilon keeps decimal percentiles such as 99.9, which
// float64 stores slightly high, from rounding up a whole rank.
func rank(p float64, n int) int {
	k := int(math.Ceil(p/100*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// percentile returns the nearest-rank percentile p of xs, or NaN for
// no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	return s[rank(p, len(s))-1]
}

// tailStat is the highest percentile of a sample set that still has
// minBeyond samples above it.
type tailStat struct {
	P      float64 // the percentile, e.g. 99
	Value  float64
	N      int // samples in the set
	Beyond int // samples strictly above the percentile's rank
}

// tail picks the highest candidate percentile with at least minBeyond
// samples beyond it. ok is false when even the median has fewer.
func tail(xs []float64) (t tailStat, ok bool) {
	n := len(xs)
	for _, p := range tailCandidates {
		if beyond := n - rank(p, n); beyond >= minBeyond {
			return tailStat{P: p, Value: percentile(xs, p), N: n, Beyond: beyond}, true
		}
	}
	return tailStat{N: n}, false
}

// tally counts operations attempted and failed. A wrong output is a
// failure like an error is.
type tally struct {
	Attempted int
	Failed    int
}

// record counts one operation; it failed when err is non-nil.
func (t *tally) record(err error) {
	t.Attempted++
	if err != nil {
		t.Failed++
	}
}

// ratio is Failed/Attempted, 0 when nothing was attempted.
func (t tally) ratio() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed) / float64(t.Attempted)
}
