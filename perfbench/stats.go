package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: p90 needs at least 100 samples, p50 at least 20.
const minBeyond = 10

// minSamples returns the smallest sample count at which the p-th
// quantile (0 < p < 1) has minBeyond samples beyond it.
func minSamples(p float64) int {
	return int(math.Ceil(minBeyond/(1-p) - 1e-9))
}

// percentile returns the nearest-rank p-quantile of xs. It refuses to
// report a percentile with fewer than minBeyond samples beyond it.
// Failed operations enter xs as +Inf, so they miss every latency limit.
func percentile(xs []float64, p float64) (float64, error) {
	if n := minSamples(p); len(xs) < n {
		return 0, fmt.Errorf("p%g needs %d samples, have %d", p*100, n, len(xs))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i], nil
}

// median is the plain median of xs (0 for an empty slice); it is used
// for per-layer figures, which carry no percentile rule.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metric is one reported figure with the number of samples behind it.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
}

// metricSet collects metrics in report order.
type metricSet struct {
	list []metric
	err  error
}

func (m *metricSet) add(name, unit string, v float64, n int) {
	m.list = append(m.list, metric{name, unit, v, n})
}

// pct adds the p-quantile of xs, recording the first percentile-rule
// violation in m.err.
func (m *metricSet) pct(name string, xs []float64, p float64) {
	v, err := percentile(xs, p)
	if err != nil && m.err == nil {
		m.err = fmt.Errorf("%s: %w", name, err)
	}
	m.add(name, "ms", v, len(xs))
}
