package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: with fewer, the value is one or two outliers, not a tail.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of ascending-sorted
// samples by the nearest-rank rule. ok is false when fewer than minBeyond
// samples lie strictly beyond the returned rank.
func percentile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is
// what the acceptance driver computes spreads with. xs need not be
// sorted; it needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		// position i*(n+1)/4, 1-based; a position outside the data is
		// extrapolated from the nearest pair, as Python does
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
	return cut(1), cut(2), cut(3)
}

// median of xs, which need not be sorted; 0 for no values.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Summary is one statistic reduced across the timed slices of a run.
type Summary struct {
	// Value is what the metric reports: the median across the N slices
	// the statistic was computed in. Q1, Q3, Min and Max describe it
	// across those slices; Q3 − Q1 is the spread the compare tool weighs
	// against the metric's bound.
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

// IQR is the inter-quartile range across slices; zero when N < 2.
func (s Summary) IQR() float64 { return s.Q3 - s.Q1 }

// scaled converts units.
func (s Summary) scaled(f float64) Summary {
	s.Value, s.Q1, s.Q3, s.Min, s.Max = s.Value*f, s.Q1*f, s.Q3*f, s.Min*f, s.Max*f
	return s
}

// single is the Summary of a statistic that has one value per run.
func single(v float64) Summary {
	return Summary{Value: v, Q1: v, Q3: v, Min: v, Max: v, N: 1}
}

// summarize reduces per-slice values to their median, the reported value,
// and their quartiles.
func summarize(xs []float64) Summary {
	switch len(xs) {
	case 0:
		return Summary{}
	case 1:
		return single(xs[0])
	}
	q1, q2, q3 := quartiles(xs)
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return Summary{Value: q2, Q1: q1, Q3: q3, Min: lo, Max: hi, N: len(xs)}
}

// slicePercentile computes the q-quantile inside every slice and
// summarizes across slices. It uses the finest slicing in which every
// slice still has minBeyond samples beyond the quantile: the slices as
// given, then merged in runs of coarse, then pooled into one sample (no
// spread). When even the pool is too small the statistic is absent.
func slicePercentile(slices [][]float64, q float64, coarse int) (Summary, bool) {
	for _, run := range []int{1, coarse, len(slices)} {
		if run < 1 || len(slices) == 0 || len(slices)%run != 0 {
			continue
		}
		per := make([]float64, 0, len(slices)/run)
		for lo := 0; lo < len(slices); lo += run {
			var pool []float64
			for _, s := range slices[lo : lo+run] {
				pool = append(pool, s...)
			}
			sort.Float64s(pool)
			v, ok := percentile(pool, q)
			if !ok {
				per = nil
				break
			}
			per = append(per, v)
		}
		if len(per) > 0 {
			return summarize(per), true
		}
	}
	return Summary{}, false
}
