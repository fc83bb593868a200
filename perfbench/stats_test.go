package main

import (
	"math"
	"testing"
)

func TestMinSamplesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		p    float64
		want int
	}{{0.5, 20}, {0.9, 100}, {0.99, 1000}} {
		if got := minSamples(c.p); got != c.want {
			t.Errorf("minSamples(%g) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestPercentileRefusesTooFewSamples(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.9); err == nil {
		t.Fatal("p90 of 99 samples was reported; it needs 100")
	}
	xs = append(xs, 100)
	v, err := percentile(xs, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	// Nearest rank: the 90th of 100 samples, with ten beyond it.
	if v != 90 {
		t.Fatalf("p90 = %g, want 90", v)
	}
}

func TestFailuresMissEveryLimit(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 1
	}
	// Eleven failed operations push p90 past any finite limit.
	for i := 0; i < 11; i++ {
		xs[i] = math.Inf(1)
	}
	v, err := percentile(xs, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(v, 1) {
		t.Fatalf("p90 with 11%% failures = %g, want +Inf", v)
	}
}

func TestMetricSetRecordsPercentileError(t *testing.T) {
	var ms metricSet
	ms.pct("x_p90_ms", []float64{1, 2, 3}, 0.9)
	if ms.err == nil {
		t.Fatal("a p90 over 3 samples did not fail the metric set")
	}
}
