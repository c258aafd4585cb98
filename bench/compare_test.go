package main

import "testing"

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(vs, n=4) for each vs.
	for _, tc := range []struct {
		vs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
	} {
		q1, m, q3 := quartiles(tc.vs)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", tc.vs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98}
	for _, tc := range []struct {
		name   string
		b      []float64
		better string
		want   string
	}{
		{"same", []float64{1.01, 1.00, 0.99, 1.00, 1.02, 0.99}, "lower", "agree"},
		{"slower", []float64{1.20, 1.21, 1.19, 1.20, 1.22, 1.18}, "lower", "regressed"},
		{"faster", []float64{0.80, 0.81, 0.79, 0.80, 0.82, 0.78}, "lower", "agree"},
		{"lower is worse", []float64{0.80, 0.81, 0.79, 0.80, 0.82, 0.78}, "higher", "regressed"},
		{"noisy", []float64{0.7, 1.3, 0.8, 1.2, 1.0, 1.1}, "lower", "unresolved"},
		{"noisy but all faster", []float64{0.5, 0.9, 0.6, 0.8, 0.7, 0.55}, "lower", "agree"},
	} {
		if got := judge(steady, tc.b, tc.better, 0.1).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
