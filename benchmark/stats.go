package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the p-th percentile (0–100) of xs by linear
// interpolation between closest ranks. xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// geomeanOfMedians is the latency rule: the median of each shape's samples,
// then the geometric mean over shapes, so that a cheap frequent shape and a
// costly one weigh the same and the figure does not jump between them.
func geomeanOfMedians(byShape [][]float64) float64 {
	var meds []float64
	for _, xs := range byShape {
		if len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return geomean(meds)
}

// tailPercentile returns the p-th percentile of the pooled samples, or an
// error when the rarest shape has fewer than ten samples beyond it: a
// percentile with fewer is one or two requests, not a tail.
func tailPercentile(byShape [][]float64, p float64) (float64, error) {
	var pooled []float64
	for i, xs := range byShape {
		if beyond := float64(len(xs)) * (100 - p) / 100; beyond < 10 {
			return 0, fmt.Errorf("shape %d has %d samples: %.1f lie beyond p%g, need 10", i, len(xs), beyond, p)
		}
		pooled = append(pooled, xs...)
	}
	return percentile(pooled, p), nil
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(xs, n=4) does (exclusive method), which is
// how the driver computes spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}
