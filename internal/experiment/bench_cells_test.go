package experiment

import (
	"testing"

	"qporder/internal/workload"
)

// benchCell runs one sequential qpbench cell per iteration; it is the
// profiling entry point for the hot-path work in this package's metrics.
func benchCell(b *testing.B, algo Algorithm, m MeasureKey, bucket, k int) {
	cfg := workload.Config{QueryLen: 3, BucketSize: bucket, Universe: 4096, Zones: 3, Seed: 42}
	d := workload.Generate(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(d, Cell{Algo: algo, Measure: m, K: k, Config: cfg})
	}
}

func BenchmarkCellPICoverage40(b *testing.B)     { benchCell(b, AlgoPI, MeasureCoverage, 40, 10) }
func BenchmarkCellIDripsCoverage40(b *testing.B) { benchCell(b, AlgoIDrips, MeasureCoverage, 40, 10) }
func BenchmarkCellStreamerCoverage40(b *testing.B) {
	benchCell(b, AlgoStreamer, MeasureCoverage, 40, 10)
}
func BenchmarkCellGreedyLinear80(b *testing.B) { benchCell(b, AlgoGreedy, MeasureLinear, 80, 20) }

// The cost-measure cells: PI's chain-formula evaluation and scratch, and
// the abstraction-based orderers on the same measures.
func BenchmarkCellPIChainFailCaching40(b *testing.B) {
	benchCell(b, AlgoPI, MeasureChainFailCache, 40, 10)
}
func BenchmarkCellPIChainFailCaching60(b *testing.B) {
	benchCell(b, AlgoPI, MeasureChainFailCache, 60, 10)
}
func BenchmarkCellPIMonetary40(b *testing.B) { benchCell(b, AlgoPI, MeasureMonetary, 40, 10) }
func BenchmarkCellPIMonetary60(b *testing.B) { benchCell(b, AlgoPI, MeasureMonetary, 60, 10) }
func BenchmarkCellIDripsChainFailCaching40(b *testing.B) {
	benchCell(b, AlgoIDrips, MeasureChainFailCache, 40, 10)
}
func BenchmarkCellIDripsMonetary40(b *testing.B) { benchCell(b, AlgoIDrips, MeasureMonetary, 40, 10) }
func BenchmarkCellStreamerMonetary40(b *testing.B) {
	benchCell(b, AlgoStreamer, MeasureMonetary, 40, 10)
}
