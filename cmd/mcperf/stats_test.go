package main

import (
	"errors"
	"math"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		q    float64
		n    int
		want float64 // 0: refused
	}{
		{0.99, 999, 0},    // 9 samples beyond p99
		{0.99, 1000, 990}, // exactly 10 beyond
		{0.9, 99, 0},
		{0.9, 100, 90},
		{0.5, 19, 0},
		{0.5, 20, 10},
		{0.5, 0, 0},
	} {
		got, err := percentile(seq(tc.n), tc.q)
		if tc.want == 0 {
			if !errors.Is(err, errTooFewSamples) {
				t.Errorf("p%g of %d: got %v, %v; want refusal", tc.q*100, tc.n, got, err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("p%g of %d: got %v, %v; want %v", tc.q*100, tc.n, got, err, tc.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) for these inputs.
	for _, tc := range []struct {
		v         []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{seq(10), 2.75, 5.5, 8.25},
		{[]float64{7, 7}, 7, 7, 7},
	} {
		q1, m, q3 := quartiles(tc.v)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(m-tc.m) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.v, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

func TestGmean(t *testing.T) {
	// One request a hundred times slower moves the geometric mean of a
	// hundred by 4.7%, where it would double the mean.
	v := make([]float64, 100)
	for i := range v {
		v[i] = 10
	}
	v[0] = 1000
	if g := gmean(v); math.Abs(g-10*math.Pow(100, 0.01)) > 1e-9 {
		t.Errorf("gmean = %v", g)
	}
	if g := gmean([]float64{1, 100}); math.Abs(g-10) > 1e-9 {
		t.Errorf("gmean(1, 100) = %v, want 10", g)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "x", Better: "lower", Bound: 0.05}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		def    metricDef
		change []float64
		want   string
	}{
		{"faster", lower, shift(parent, 0.8), "improved"},
		{"same", lower, parent, "unchanged"},
		{"slower", lower, shift(parent, 1.2), "regressed"},
		{"noisy parent", metricDef{Name: "x", Better: "lower", Bound: 0.001}, shift(parent, 1.0005), "unresolved"},
		{"higher is better", metricDef{Name: "x", Better: "higher", Bound: 0.05}, shift(parent, 0.8), "regressed"},
	} {
		if got, _, _ := verdict(tc.def, true, parent, tc.change); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	if got, _, _ := verdict(lower, false, parent, shift(parent, 1.2)); got != "worsened" {
		t.Errorf("per-layer slower: verdict %q, want worsened", got)
	}
}
