package main

import (
	"math"
	"testing"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95},
		{499, 95}, {500, 98}, {999, 98}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 50 && float64(c.n)*(100-p)/100 < 10-1e-9 {
			t.Errorf("tailPercentile(%d) = %g leaves fewer than ten samples beyond", c.n, p)
		}
	}
	if got := opTail(1_000_000); got != 99 {
		t.Errorf("opTail caps at p99, got %g", got)
	}
	if got := opTail(60); got != 75 {
		t.Errorf("opTail(60) = %g, want 75", got)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {75, 4}, {90, 4.6}, {100, 5}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %g", got)
	}
}

// The driver computes spread with Python's statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 3})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(1,2,3) = %g %g %g, want 1 2 3", q1, q2, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread = %g, want 1", got)
	}
}

func TestSteadyPercentileIgnoresOneNoisySlice(t *testing.T) {
	xs := make([]float64, 6000)
	for i := range xs {
		xs[i] = 1 + float64(i%100)/100
		if i < 1000 {
			xs[i] *= 10 // a burst covering the first slice only
		}
	}
	if got := steadyPercentile(xs, 50); got > 2 {
		t.Errorf("median of slices = %g, the burst leaked", got)
	}
	// Too few samples to keep ten beyond p99 in more than one slice.
	small := xs[1000:2200]
	if got, want := steadyPercentile(small, 99), percentile(sortedCopy(small), 99); got != want {
		t.Errorf("steadyPercentile on 1200 samples = %g, want the plain percentile %g", got, want)
	}
}
