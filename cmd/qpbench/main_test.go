package main

import (
	"path/filepath"
	"testing"

	"qporder/internal/experiment"
)

func piCell(nsPerPlan int64) experiment.MetricsReport {
	return experiment.MetricsReport{
		SchemaVersion: experiment.MetricsSchemaVersion,
		Records: []experiment.MetricRecord{{
			Algorithm: "pi", Measure: "coverage", BucketSize: 40, K: 10, NsPerPlan: nsPerPlan,
		}},
	}
}

// TestReportMetricsSameFileCatchesRegression: make bench-check writes the
// day's report, and CI compares against the newest checked-in report, so
// on the day a baseline is committed the output and the baseline are one
// file. The compare must still see the old baseline and fail a planted
// regression, not compare the fresh report with itself.
func TestReportMetricsSameFileCatchesRegression(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_2026-01-02.json")
	if err := writeReport(path, piCell(100)); err != nil {
		t.Fatal(err)
	}
	if reportMetrics(path, path, 0.20, func() experiment.MetricsReport { return piCell(200) }) {
		t.Fatal("a 2x ns/plan regression passed when the output overwrote its own baseline")
	}
	got, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if ns := got.Records[0].NsPerPlan; ns != 200 {
		t.Fatalf("report on disk has ns/plan %d, want the fresh 200", ns)
	}
	// The fresh report is now the baseline: the same figure passes.
	if !reportMetrics(path, path, 0.20, func() experiment.MetricsReport { return piCell(200) }) {
		t.Fatal("an unchanged report failed against itself")
	}
}

// TestReportMetricsMissingBaselineFailsFirst: an unreadable baseline fails
// the run before the report is built.
func TestReportMetricsMissingBaselineFailsFirst(t *testing.T) {
	dir := t.TempDir()
	built := false
	ok := reportMetrics(filepath.Join(dir, "out.json"), filepath.Join(dir, "missing.json"), 0.20,
		func() experiment.MetricsReport { built = true; return piCell(100) })
	if ok || built {
		t.Fatalf("missing baseline: ok=%v built=%v, want false before building", ok, built)
	}
}
