package main

import (
	"math"
	"sort"
)

// percentileLadder is the set of percentiles a report may name, lowest
// first.
var percentileLadder = []float64{50, 75, 90, 95, 99, 99.9}

// topPercentile returns the highest ladder percentile that still has at
// least ten samples beyond it, or 0 when even the median does not
// (n < 20).
func topPercentile(n int) float64 {
	top := 0.0
	for _, p := range percentileLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100−99.9 is not exact in binary
			top = p
		}
	}
	return top
}

// percentile reads the p-th percentile (0 < p <= 100) from an ascending
// slice by the nearest-rank rule; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) does (the default "exclusive"
// method), which is what the acceptance check is stated in. It needs at
// least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	m := len(s)
	if m < 2 {
		return math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	med := median(v)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}
