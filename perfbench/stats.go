package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a p99 needs at least 1000 samples, a p50 at least 20.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of the
// sorted samples, and false when fewer than minBeyond samples lie above
// it — the percentile is then omitted rather than read off a handful of
// values.
func percentile(sorted []int64, q float64) (int64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	return sorted[rank-1], true
}

// sortedCopy returns the samples in ascending order without touching the
// caller's slice.
func sortedCopy(samples []int64) []int64 {
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// ratio returns num/den, or 0 when den is 0: a ratio whose base never
// occurred in the run (no reads, no writes) reports that the layer did
// no such work.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perKop scales a count to "per thousand completed operations".
func perKop(count, ops int64) float64 { return ratio(float64(count)*1000, float64(ops)) }

// histDelta is the difference of two snapshots of one cumulative
// histogram's (count, sum) pair, as exported by the engine's metrics.
type histDelta struct{ count, sum int64 }

func deltaHist(beforeCount, beforeSum, afterCount, afterSum int64) histDelta {
	return histDelta{count: afterCount - beforeCount, sum: afterSum - beforeSum}
}

// mean returns the average of the observations made between the two
// snapshots, in the histogram's own unit.
func (d histDelta) mean() float64 { return ratio(float64(d.sum), float64(d.count)) }

// median returns the middle value of xs (the mean of the two middle ones
// for an even count); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
