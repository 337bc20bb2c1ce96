package main

import (
	"math"
	"testing"
)

// Values from Python: statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{3, 1, 2}, 1, 2, 3},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	cases := []struct {
		name         string
		a, b         []float64
		higherBetter bool
		bound        float64
		want         string
	}{
		{"same runs", base, base, false, 0.1, "no change"},
		{"within bound and noise", base, scaled(1.005), false, 0.1, "no change"},
		{"every pair faster", base, scaled(0.9), false, 0.1, "improved"},
		{"higher is better", base, scaled(1.1), true, 0.1, "improved"},
		{"slower beyond bound", base, scaled(1.2), false, 0.1, "regressed"},
		{"slower within bound", base, scaled(1.05), false, 0.1, "no change"},
		{"spread wider than bound", []float64{50, 150, 80, 120, 60, 140, 90, 110, 70, 130},
			[]float64{60, 160, 90, 130, 70, 150, 100, 120, 80, 140}, false, 0.1, "unresolved"},
		{"wide spread, every change run worse", []float64{50, 150, 80, 120, 60, 140, 90, 110, 70, 130},
			[]float64{260, 360, 290, 330, 270, 350, 300, 320, 280, 340}, false, 0.1, "regressed"},
	}
	for _, c := range cases {
		if got := compare(c.a, c.b, c.higherBetter, c.bound).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// Half the pairs won is not a gain, however the medians compare.
func TestCompareNeedsNineTenthsOfPairs(t *testing.T) {
	a := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}
	b := []float64{9, 11, 9, 11, 9, 11, 9, 11, 9, 9}
	c := compare(a, b, false, 0.5)
	if c.verdict == "improved" || c.won != 6 || c.pairs != 10 {
		t.Fatalf("verdict %q with %d/%d pairs won", c.verdict, c.won, c.pairs)
	}
}
