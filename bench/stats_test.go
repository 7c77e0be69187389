package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // 10 samples above 990
		{999, 0.99, 990, false}, // only 9 above
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{100, 0.90, 90, true},
		{1, 0.50, 1, false},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestTailPicksHighestQualifyingLevel(t *testing.T) {
	for _, tc := range []struct {
		n     int
		level float64
		ok    bool
	}{
		{2000, 0.99, true},
		{500, 0.95, true},
		{100, 0.90, true},
		{40, 0.75, true},
		{30, 0, false},
	} {
		level, v, ok := tail(seq(tc.n))
		if level != tc.level || ok != tc.ok {
			t.Errorf("tail(1..%d) = p%g (%g), %v; want p%g, %v", tc.n, 100*level, v, ok, 100*tc.level, tc.ok)
			continue
		}
		if ok {
			if want, _ := percentile(seq(tc.n), level); v != want {
				t.Errorf("tail(1..%d) value %g, percentile says %g", tc.n, v, want)
			}
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(xs, n=4) on these inputs.
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g; want %g %g %g", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %g, want 1", got)
	}
}

func TestKneeIsLastStepBeforeFirstMiss(t *testing.T) {
	pass := ladderStep{P99: 3}
	slow := ladderStep{P99: sloP99Ms + 1}
	failed := ladderStep{P99: 3, Failed: 1}
	backlog := ladderStep{P99: 3, Backlog: true}
	for _, tc := range []struct {
		name  string
		steps []ladderStep
		want  int
	}{
		{"all pass", []ladderStep{pass, pass, pass}, 2},
		{"p99 over the limit", []ladderStep{pass, pass, slow, pass}, 1},
		{"a failed request", []ladderStep{pass, failed, pass}, 0},
		{"growing backlog", []ladderStep{pass, pass, backlog}, 1},
		{"first step misses", []ladderStep{slow, pass}, -1},
		{"exactly at the limit", []ladderStep{{P99: sloP99Ms}}, 0},
	} {
		if got := knee(tc.steps); got != tc.want {
			t.Errorf("%s: knee = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	b := e2eBound{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100}
	for _, tc := range []struct {
		name string
		next []float64
		b    e2eBound
		want string
	}{
		{"same", steady, b, verdictOK},
		{"5% slower", scale(steady, 1.05), b, verdictOK},
		{"20% slower", scale(steady, 1.20), b, verdictRegressed},
		{"20% faster", scale(steady, 0.80), b, verdictOK},
		{"noisy", []float64{50, 150, 100, 60, 140}, b, verdictUnresolved},
		{"higher is better, 20% lower", scale(steady, 0.80), e2eBound{Better: "higher", Bound: 0.10}, verdictRegressed},
	} {
		if got, _ := verdict(steady, tc.next, tc.b); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
