package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of an ascending slice by
// linear interpolation between the two closest ranks; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 || p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns xs in ascending order without touching the input,
// which the workloads keep in completion order for slicing.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// pct is percentile for a slice in any order.
func pct(xs []float64, p float64) float64 { return percentile(sortedCopy(xs), p) }

func median(xs []float64) float64 { return pct(xs, 50) }

// tailLadder is the set of tail percentiles the benchmark may report.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 75}

// tailPercentile picks the highest percentile of the ladder that still has
// at least ten of n samples beyond it (the choosing-metrics rule); with
// fewer than forty samples only the median is defensible.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 50
}

// opTail is the percentile behind op_tail_ms and the other tails: the
// highest percentile, p99 at most, that keeps ten of n samples beyond it.
func opTail(n int) float64 { return math.Min(99, tailPercentile(n)) }

// slicedTail is opTail for a tail taken as a median of statSlices slices:
// each slice must keep its own ten samples beyond.
func slicedTail(n int) float64 { return opTail(n / statSlices) }

// statSlices is how many contiguous slices of a window a sliced statistic
// is taken over. A host-noise burst shorter than a slice moves one slice
// value and leaves their median alone.
const statSlices = 6

// steadyPercentile cuts xs (in completion order) into contiguous slices of
// equal count, takes the p-th percentile of each, and returns the median of
// those. It uses as many slices, at most statSlices, as leave ten samples
// beyond the percentile in each; one slice is the plain percentile.
func steadyPercentile(xs []float64, p float64) float64 {
	k := statSlices
	for k > 1 && float64(len(xs)/k)*(100-p)/100 < 10 {
		k--
	}
	if k == 1 {
		return pct(xs, p)
	}
	vals := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		lo, hi := i*len(xs)/k, (i+1)*len(xs)/k
		vals = append(vals, pct(xs[lo:hi], p))
	}
	return median(vals)
}

// quartiles returns Q1, median and Q3 by the same method as Python's
// statistics.quantiles(values, n=4) (exclusive), which is what the driver
// judges run-to-run spread with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}
