package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie above it, so a tail is never one outlier.
const minBeyond = 10

// errTooFewSamples marks a percentile refused by the percentile rule.
var errTooFewSamples = errors.New("too few samples beyond the percentile")

// percentile returns the nearest-rank q-quantile (0 < q < 1) of samples,
// which must be sorted ascending. It refuses a percentile with fewer than
// minBeyond samples above it.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; n == 0 || beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples: %w (need %d)", q*100, n, errTooFewSamples, minBeyond)
	}
	return sorted[idx], nil
}

// quartiles returns the first quartile, median and third quartile of
// values exactly as Python's statistics.quantiles(values, n=4) computes
// them (the default "exclusive" method), so spreads read the same here as
// in any script that checks them.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// mean returns the arithmetic mean, 0 for no values.
func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var s float64
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

// gmean returns the geometric mean of positive values, 0 for none.
func gmean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var s float64
	for _, v := range values {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(values)))
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
