package core

import (
	"runtime"
	"testing"

	"qporder/internal/costmodel"
	"qporder/internal/measure"
	"qporder/internal/planspace"
	"qporder/internal/workload"
)

// orderKDomain is the b = 40 domain of the order-k benchmark workload
// (qlen 3, overlap about 0.3, seed 42): 64,000 plans.
func orderKDomain() *workload.Domain {
	return workload.Generate(workload.Config{QueryLen: 3, BucketSize: 40, Zones: 3, Seed: 42})
}

// TestPIBytesPerPlan gates PI's per-request scratch: building the orderer
// and taking 10 plans from the b = 40 order-k space allocates at most 24
// bytes per plan. The n-sized buffers are the utilities, the alive flags
// and the independence verdicts (10 bytes a plan); the scoring pass and
// the re-evaluation sweep use buffers sized by a chunk and by the
// dependent set.
func TestPIBytesPerPlan(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	d := orderKDomain()
	spaces := []*planspace.Space{d.Space}
	n := len(d.Space.Enumerate()) // memoized: not part of the request
	for _, tc := range []struct {
		name string
		m    measure.Measure
	}{
		{"chain-fail-caching", costmodel.NewChainCost(d.Catalog, costmodel.Params{N: d.Params.N, Failure: true, Caching: true})},
		{"monetary", costmodel.NewMonetaryPerTuple(d.Catalog, costmodel.Params{N: d.Params.N})},
	} {
		best := ^uint64(0)
		for rep := 0; rep < 3; rep++ {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			Take(NewPI(spaces, tc.m), 10)
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		perPlan := float64(best) / float64(n)
		t.Logf("%s: %.1f bytes per plan", tc.name, perPlan)
		if perPlan > 24 {
			t.Errorf("%s: NewPI + 10 Next allocate %.1f bytes per plan (%d bytes over %d plans), want <= 24",
				tc.name, perPlan, best, n)
		}
	}
}

// TestPISteadyStateNextAllocFree: once its sweep buffers have grown, a PI
// Next call allocates nothing of its own. The measure's executed-prefix
// log still grows by amortized doubling, which AllocsPerRun's per-run
// average rounds away.
func TestPISteadyStateNextAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	d := workload.Generate(workload.Config{QueryLen: 3, BucketSize: 12, Zones: 3, Seed: 42})
	m := costmodel.NewChainCost(d.Catalog, costmodel.Params{N: d.Params.N, Failure: true, Caching: true})
	o := NewPI([]*planspace.Space{d.Space}, m)
	Take(o, 200)
	if allocs := testing.AllocsPerRun(200, func() { o.Next() }); allocs != 0 {
		t.Fatalf("steady-state PI Next allocates %.1f per call, want 0", allocs)
	}
}
