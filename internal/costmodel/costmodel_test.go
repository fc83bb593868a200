package costmodel_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"qporder/internal/abstraction"
	"qporder/internal/costmodel"
	"qporder/internal/lav"
	"qporder/internal/measure"
	"qporder/internal/planspace"
	"qporder/internal/workload"
)

func domain(seed int64) *workload.Domain {
	return workload.Generate(workload.Config{
		QueryLen: 3, BucketSize: 5, Universe: 256, Zones: 3, Seed: seed,
	})
}

// planOf builds the concrete plan choosing source index j in each bucket.
func planOf(d *workload.Domain, j int) *planspace.Plan {
	leaves := abstraction.BuildLeaves(d.Buckets)
	nodes := make([]*abstraction.Node, len(leaves))
	for i := range leaves {
		nodes[i] = leaves[i][j%len(leaves[i])]
	}
	return planspace.New(nodes...)
}

func TestLinearCostManual(t *testing.T) {
	cat := lav.NewCatalog()
	a := cat.MustAdd("a", nil, lav.Stats{Tuples: 100, TransmitCost: 2, Overhead: 10})
	b := cat.MustAdd("b", nil, lav.Stats{Tuples: 50, TransmitCost: 1, Overhead: 5})
	m := costmodel.NewLinearCost(cat)
	ctx := m.NewContext()
	leaves := abstraction.BuildLeaves([][]lav.SourceID{{a.ID}, {b.ID}})
	p := planspace.New(leaves[0][0], leaves[1][0])
	// cost = (10 + 2*100) + (5 + 1*50) = 265; utility = -265.
	if got := ctx.Evaluate(p).Lo; got != -265 {
		t.Errorf("utility = %g, want -265", got)
	}
}

func TestLinearCostBucketOrder(t *testing.T) {
	cat := lav.NewCatalog()
	// terms: a=210, b=55, c=110
	a := cat.MustAdd("a", nil, lav.Stats{Tuples: 100, TransmitCost: 2, Overhead: 10})
	b := cat.MustAdd("b", nil, lav.Stats{Tuples: 50, TransmitCost: 1, Overhead: 5})
	c := cat.MustAdd("c", nil, lav.Stats{Tuples: 100, TransmitCost: 1, Overhead: 10})
	m := costmodel.NewLinearCost(cat)
	got, ok := m.BucketOrder(0, []lav.SourceID{a.ID, b.ID, c.ID})
	if !ok {
		t.Fatal("BucketOrder not available")
	}
	want := []lav.SourceID{b.ID, c.ID, a.ID}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestChainCostManualTwoSubgoals(t *testing.T) {
	cat := lav.NewCatalog()
	a := cat.MustAdd("a", nil, lav.Stats{Tuples: 100, TransmitCost: 2, Overhead: 10})
	b := cat.MustAdd("b", nil, lav.Stats{Tuples: 50, TransmitCost: 1, Overhead: 5})
	m := costmodel.NewChainCost(cat, costmodel.Params{N: 1000})
	ctx := m.NewContext()
	leaves := abstraction.BuildLeaves([][]lav.SourceID{{a.ID}, {b.ID}})
	p := planspace.New(leaves[0][0], leaves[1][0])
	// out1 = 100; cost = (10 + 2*100) + (5 + 1*(50*100/1000)) = 210 + 10 = 220.
	if got := ctx.Evaluate(p).Lo; got != -220 {
		t.Errorf("utility = %g, want -220", got)
	}
}

func TestChainCostFailureInflatesOverhead(t *testing.T) {
	cat := lav.NewCatalog()
	a := cat.MustAdd("a", nil, lav.Stats{Tuples: 10, TransmitCost: 1, Overhead: 10, FailureProb: 0.5})
	m := costmodel.NewChainCost(cat, costmodel.Params{N: 100, Failure: true})
	ctx := m.NewContext()
	leaves := abstraction.BuildLeaves([][]lav.SourceID{{a.ID}})
	p := planspace.New(leaves[0][0])
	// overhead 10/(1-0.5)=20, transmit 10 → cost 30.
	if got := ctx.Evaluate(p).Lo; got != -30 {
		t.Errorf("utility = %g, want -30", got)
	}
}

func TestChainCostCachingZeroesSharedOps(t *testing.T) {
	cat := lav.NewCatalog()
	a := cat.MustAdd("a", nil, lav.Stats{Tuples: 100, TransmitCost: 2, Overhead: 10})
	b := cat.MustAdd("b", nil, lav.Stats{Tuples: 50, TransmitCost: 1, Overhead: 5})
	c := cat.MustAdd("c", nil, lav.Stats{Tuples: 80, TransmitCost: 1, Overhead: 5})
	m := costmodel.NewChainCost(cat, costmodel.Params{N: 1000, Caching: true})
	ctx := m.NewContext()
	leaves := abstraction.BuildLeaves([][]lav.SourceID{{a.ID}, {b.ID, c.ID}})
	pab := planspace.New(leaves[0][0], leaves[1][0])
	pac := planspace.New(leaves[0][0], leaves[1][1])
	before := ctx.Evaluate(pac).Lo
	ctx.Observe(pab) // caches (0,a) and (1,b)
	after := ctx.Evaluate(pac).Lo
	// pac shares op (0,a): its cost drops by a's term 10+2*100=210.
	if math.Abs((after-before)-210) > 1e-9 {
		t.Errorf("caching delta = %g, want 210", after-before)
	}
	// utility increased ⇒ diminishing returns must be reported false.
	if m.DiminishingReturns() {
		t.Error("caching chain cost claims diminishing returns")
	}
	// And re-evaluating pab itself is now fully cached: cost 0.
	if got := ctx.Evaluate(pab).Lo; got != 0 {
		t.Errorf("fully cached plan utility = %g, want 0", got)
	}
}

func TestMonetaryManual(t *testing.T) {
	cat := lav.NewCatalog()
	a := cat.MustAdd("a", nil, lav.Stats{Tuples: 100, AccessFee: 7, TupleFee: 0.1})
	b := cat.MustAdd("b", nil, lav.Stats{Tuples: 50, AccessFee: 3, TupleFee: 0.2})
	m := costmodel.NewMonetaryPerTuple(cat, costmodel.Params{N: 1000})
	ctx := m.NewContext()
	leaves := abstraction.BuildLeaves([][]lav.SourceID{{a.ID}, {b.ID}})
	p := planspace.New(leaves[0][0], leaves[1][0])
	// out1=100, out2=50*100/1000=5; cost$ = (7+0.1*100)+(3+0.2*5)=17+4=21.
	// utility = -21/5 = -4.2.
	if got := ctx.Evaluate(p).Lo; math.Abs(got-(-4.2)) > 1e-9 {
		t.Errorf("utility = %g, want -4.2", got)
	}
}

// TestAbstractIntervalSoundness: for every cost measure, abstract plan
// intervals contain all represented concrete utilities, across caching
// states.
func TestAbstractIntervalSoundness(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30}
	prop := func(seed int64) bool {
		d := domain(seed)
		rng := rand.New(rand.NewSource(seed ^ 77))
		ms := []measure.Measure{
			costmodel.NewLinearCost(d.Catalog),
			costmodel.NewChainCost(d.Catalog, costmodel.Params{N: d.Params.N, Failure: true}),
			costmodel.NewChainCost(d.Catalog, costmodel.Params{N: d.Params.N, Failure: true, Caching: true}),
			costmodel.NewMonetaryPerTuple(d.Catalog, costmodel.Params{N: d.Params.N}),
			costmodel.NewMonetaryPerTuple(d.Catalog, costmodel.Params{N: d.Params.N, Caching: true}),
		}
		all := d.Space.Enumerate()
		for _, m := range ms {
			ctx := m.NewContext()
			for round := 0; round < 2; round++ {
				work := []*planspace.Plan{d.Space.Root(abstraction.ByTuples(d.Catalog))}
				for len(work) > 0 {
					p := work[len(work)-1]
					work = work[:len(work)-1]
					iv := ctx.Evaluate(p)
					for _, c := range all {
						if !represents(p, c) {
							continue
						}
						u := ctx.Evaluate(c).Lo
						if u < iv.Lo-1e-9 || u > iv.Hi+1e-9 {
							t.Logf("measure=%s plan=%s member=%s u=%g iv=%v",
								m.Name(), p.Key(), c.Key(), u, iv)
							return false
						}
					}
					if !p.Concrete() && rng.Intn(2) == 0 {
						work = append(work, p.Refine()...)
					}
				}
				ctx.Observe(all[rng.Intn(len(all))])
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func represents(p, c *planspace.Plan) bool {
	for i, n := range p.Nodes {
		found := false
		for _, s := range n.Sources {
			if c.Nodes[i].Source() == s {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// TestCachingIndependenceOracleSound: oracle-independent plans must not
// change utility when the other plan executes.
func TestCachingIndependenceOracleSound(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50}
	prop := func(seed int64) bool {
		d := domain(seed)
		rng := rand.New(rand.NewSource(seed ^ 31))
		m := costmodel.NewChainCost(d.Catalog, costmodel.Params{N: d.Params.N, Caching: true})
		ctx := m.NewContext()
		all := d.Space.Enumerate()
		for round := 0; round < 4; round++ {
			dp := all[rng.Intn(len(all))]
			type snap struct {
				u     float64
				indep bool
			}
			before := make(map[string]snap)
			for _, p := range all {
				before[p.Key()] = snap{ctx.Evaluate(p).Lo, ctx.Independent(p, dp)}
			}
			ctx.Observe(dp)
			for _, p := range all {
				s := before[p.Key()]
				if s.indep && ctx.Evaluate(p).Lo != s.u {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestNoCachingMeasuresAreUnconditional: without caching, utilities never
// change as plans execute.
func TestNoCachingMeasuresAreUnconditional(t *testing.T) {
	d := domain(5)
	rng := rand.New(rand.NewSource(11))
	for _, m := range []measure.Measure{
		costmodel.NewLinearCost(d.Catalog),
		costmodel.NewChainCost(d.Catalog, costmodel.Params{N: d.Params.N, Failure: true}),
		costmodel.NewMonetaryPerTuple(d.Catalog, costmodel.Params{N: d.Params.N}),
	} {
		ctx := m.NewContext()
		all := d.Space.Enumerate()
		before := make(map[string]float64)
		for _, p := range all {
			before[p.Key()] = ctx.Evaluate(p).Lo
		}
		for i := 0; i < 3; i++ {
			ctx.Observe(all[rng.Intn(len(all))])
		}
		for _, p := range all {
			if ctx.Evaluate(p).Lo != before[p.Key()] {
				t.Errorf("measure %s: utility changed without caching", m.Name())
			}
		}
		if !m.DiminishingReturns() {
			t.Errorf("measure %s: constant utilities must satisfy diminishing returns", m.Name())
		}
	}
}

// TestGreedyOrderMatchesEvaluate: the BucketOrder of the fully monotonic
// measure is consistent with actual plan utilities — replacing a source
// with an earlier-ordered one never lowers utility.
func TestGreedyOrderConsistency(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50}
	prop := func(seed int64) bool {
		d := domain(seed)
		m := costmodel.NewLinearCost(d.Catalog)
		ctx := m.NewContext()
		rng := rand.New(rand.NewSource(seed ^ 13))
		for bi, bucket := range d.Buckets {
			ordered, ok := m.BucketOrder(bi, bucket)
			if !ok {
				return false
			}
			// Build a random plan, substitute position bi with consecutive
			// ordered sources, check monotone utility.
			leaves := abstraction.BuildLeaves(d.Buckets)
			nodes := make([]*abstraction.Node, len(d.Buckets))
			for i := range nodes {
				nodes[i] = leaves[i][rng.Intn(len(leaves[i]))]
			}
			prevU := math.Inf(1)
			for _, s := range ordered {
				for _, leaf := range leaves[bi] {
					if leaf.Source() == s {
						nodes[bi] = leaf
					}
				}
				u := ctx.Evaluate(planspace.New(nodes...)).Lo
				if u > prevU+1e-9 {
					return false
				}
				prevU = u
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestWeightedCombination(t *testing.T) {
	d := domain(3)
	lin := costmodel.NewLinearCost(d.Catalog)
	chain := costmodel.NewChainCost(d.Catalog, costmodel.Params{N: d.Params.N})
	w := costmodel.NewWeighted("", costmodel.Component{Measure: lin, Weight: 2},
		costmodel.Component{Measure: chain, Weight: 0.5})
	ctx := w.NewContext()
	lctx, cctx := lin.NewContext(), chain.NewContext()
	p := planOf(d, 1)
	want := 2*lctx.Evaluate(p).Lo + 0.5*cctx.Evaluate(p).Lo
	if got := ctx.Evaluate(p).Lo; math.Abs(got-want) > 1e-9 {
		t.Errorf("weighted = %g, want %g", got, want)
	}
	if !w.DiminishingReturns() {
		t.Error("combination of diminishing measures should diminish")
	}
	wc := costmodel.NewWeighted("", costmodel.Component{
		Measure: costmodel.NewChainCost(d.Catalog, costmodel.Params{N: d.Params.N, Caching: true}),
		Weight:  1,
	})
	if wc.DiminishingReturns() {
		t.Error("combination with caching measure should not diminish")
	}
}

// TestMeasureOverGrownCatalogFailsLoudly: the chain-family measures read
// the catalog once, at construction. Evaluating or observing a plan over
// a source added afterwards must fail with a message naming the contract,
// not with a bare index-out-of-range panic.
func TestMeasureOverGrownCatalogFailsLoudly(t *testing.T) {
	for _, caching := range []bool{false, true} {
		cat := lav.NewCatalog()
		a := cat.MustAdd("a", nil, lav.Stats{Tuples: 10, TransmitCost: 1, Overhead: 1})
		prm := costmodel.Params{N: 100, Caching: caching}
		ms := []measure.Measure{costmodel.NewChainCost(cat, prm), costmodel.NewMonetaryPerTuple(cat, prm)}
		late := cat.MustAdd("late", nil, lav.Stats{Tuples: 10, TransmitCost: 1, Overhead: 1})
		leaves := abstraction.BuildLeaves([][]lav.SourceID{{a.ID}, {late.ID}})
		p := planspace.New(leaves[0][0], leaves[1][0])
		for _, m := range ms {
			ctx := m.NewContext()
			ops := map[string]func(){"Evaluate": func() { ctx.Evaluate(p) }}
			if caching {
				ops["Observe"] = func() { ctx.Observe(p) }
			}
			for op, f := range ops {
				msg := func() (msg string) {
					defer func() { msg = fmt.Sprint(recover()) }()
					f()
					return ""
				}()
				if !strings.Contains(msg, "catalog grew after the measure was built") {
					t.Errorf("%s %s over a grown catalog: panic %q, want the catalog contract", m.Name(), op, msg)
				}
			}
		}
	}
}
