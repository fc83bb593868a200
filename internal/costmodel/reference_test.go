package costmodel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qporder/internal/abstraction"
	"qporder/internal/interval"
	"qporder/internal/lav"
	"qporder/internal/measure"
	"qporder/internal/planspace"
)

// testCatalog builds a random catalog with nBuckets buckets of width
// sources and returns the bucket layout.
func testCatalog(seed int64, nBuckets, width int) (*lav.Catalog, [][]lav.SourceID) {
	rng := rand.New(rand.NewSource(seed))
	cat := lav.NewCatalog()
	buckets := make([][]lav.SourceID, nBuckets)
	for b := range buckets {
		for j := 0; j < width; j++ {
			st := lav.Stats{
				Tuples:       1 + rng.Float64()*999,
				Overhead:     rng.Float64() * 5,
				TransmitCost: rng.Float64() * 0.01,
				FailureProb:  rng.Float64() * 0.5,
				AccessFee:    rng.Float64() * 2,
				TupleFee:     rng.Float64() * 0.05,
			}
			src := cat.MustAdd(fmt.Sprintf("S%d_%d", b, j), nil, st)
			buckets[b] = append(buckets[b], src.ID)
		}
	}
	return cat, buckets
}

// refOp identifies a source operation for the reference: position pos
// accessing source src.
type refOp struct {
	pos int
	src lav.SourceID
}

// chainCostReference is the chain formula in its direct form: interval
// arithmetic over catalog reads, with each position's output-size range
// taken in a separate pass. It is the test oracle for
// chainTable.concreteCost and intervalCost.
// cached may be nil (no caching); useFees selects the monetary
// coefficients.
func chainCostReference(cat *lav.Catalog, p *planspace.Plan, prm Params, cached map[refOp]bool,
	useFees bool) (cost, outLast interval.Interval) {
	prevOut := interval.Point(0) // output of the previous position
	total := interval.Point(0)
	for k, node := range p.Nodes {
		// Output-size interval of this position over all members.
		minN := cat.Source(node.Sources[0]).Stats.Tuples
		maxN := minN
		for _, id := range node.Sources[1:] {
			t := cat.Source(id).Stats.Tuples
			if t < minN {
				minN = t
			}
			if t > maxN {
				maxN = t
			}
		}
		var outIv interval.Interval
		if k == 0 {
			outIv = interval.New(minN, maxN)
		} else {
			outIv = interval.New(minN, maxN).Mul(prevOut).Scale(1 / prm.N)
		}
		// Cost-contribution hull over members.
		var costIv interval.Interval
		for i, m := range node.Sources {
			st := cat.Source(m).Stats
			var cm interval.Interval
			if cached[refOp{k, m}] {
				cm = interval.Point(0)
			} else {
				var outM interval.Interval
				if k == 0 {
					outM = interval.Point(st.Tuples)
				} else {
					outM = prevOut.Scale(st.Tuples / prm.N)
				}
				if useFees {
					cm = outM.Scale(st.TupleFee).Add(interval.Point(st.AccessFee))
				} else {
					cm = outM.Scale(st.TransmitCost).
						Add(interval.Point(effectiveOverhead(st, prm.Failure)))
				}
			}
			if i == 0 {
				costIv = cm
			} else {
				costIv = costIv.Hull(cm)
			}
		}
		total = total.Add(costIv)
		prevOut = outIv
	}
	return total, prevOut
}

// refContext evaluates utilities through chainCostReference, with the
// caching measures' Observe semantics.
type refContext struct {
	cat      *lav.Catalog
	prm      Params
	monetary bool
	cached   map[refOp]bool // nil when caching is off
}

func newRefContext(cat *lav.Catalog, prm Params, monetary bool) *refContext {
	r := &refContext{cat: cat, prm: prm, monetary: monetary}
	if monetary {
		r.prm.Failure = false
	}
	if prm.Caching {
		r.cached = map[refOp]bool{}
	}
	return r
}

func (r *refContext) Evaluate(p *planspace.Plan) interval.Interval {
	cost, out := chainCostReference(r.cat, p, r.prm, r.cached, r.monetary)
	if r.monetary {
		return cost.Div(out).Neg()
	}
	return cost.Neg()
}

func (r *refContext) Observe(d *planspace.Plan) {
	if r.cached != nil {
		for k, n := range d.Nodes {
			r.cached[refOp{k, n.Source()}] = true
		}
	}
}

// sameBits reports whether two intervals are equal bit for bit.
func sameBits(a, b interval.Interval) bool {
	return math.Float64bits(a.Lo) == math.Float64bits(b.Lo) &&
		math.Float64bits(a.Hi) == math.Float64bits(b.Hi)
}

// TestHoistedChainMatchesLegacy drives the table-driven contexts of every
// chain-family configuration and the reference formula through an
// identical schedule and requires bit-identical intervals, on abstract
// plans (interval loop) and concrete ones (float64 loop) alike.
func TestHoistedChainMatchesLegacy(t *testing.T) {
	for _, cfg := range []struct {
		name             string
		failure, caching bool
		monetary         bool
	}{
		{"chain", false, false, false},
		{"chain+failure", true, false, false},
		{"chain+caching", false, true, false},
		{"chain+failure+caching", true, true, false},
		{"monetary", false, false, true},
		{"monetary+caching", false, true, true},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			for seed := int64(0); seed < 10; seed++ {
				cat, buckets := testCatalog(seed, 3, 6)
				space := planspace.NewSpace(buckets)
				prm := Params{N: 5000, Failure: cfg.failure, Caching: cfg.caching}

				var hoisted measure.Context
				if cfg.monetary {
					hoisted = NewMonetaryPerTuple(cat, prm).NewContext()
				} else {
					hoisted = NewChainCost(cat, prm).NewContext()
				}
				ref := newRefContext(cat, prm, cfg.monetary)
				check := func(p *planspace.Plan) {
					t.Helper()
					if a, b := hoisted.Evaluate(p), ref.Evaluate(p); !sameBits(a, b) {
						t.Fatalf("seed=%d plan %s: table %v != reference %v", seed, p.Key(), a, b)
					}
				}

				rng := rand.New(rand.NewSource(seed ^ 0xd1ff))
				all := space.Enumerate()
				for round := 0; round < 3; round++ {
					// Fresh hierarchies per round: distinct Node objects with
					// identical content, as iDrips produces.
					frontier := []*planspace.Plan{space.Root(abstraction.ByTuples(cat))}
					for len(frontier) > 0 {
						p := frontier[rng.Intn(len(frontier))]
						check(p)
						if p.Concrete() {
							break
						}
						frontier = p.Refine()
					}
					for i := 0; i < 5; i++ {
						check(all[rng.Intn(len(all))])
					}
					d := all[rng.Intn(len(all))]
					hoisted.Observe(d)
					ref.Observe(d)
				}
			}
		})
	}
}

// FuzzChainConcrete checks the float64 loop against the reference's point
// interval on random statistics (zero fees, Tuples = 1 and huge N
// included), a random concrete plan and a random observed prefix. Either
// both panic (a monetary output that underflows to zero) or they agree
// under math.Float64bits.
func FuzzChainConcrete(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(0), 1000.0)
	f.Add(int64(2), uint8(4), uint8(0xff), 1.0)
	f.Add(int64(3), uint8(1), uint8(0x5a), 1e300)
	f.Add(int64(4), uint8(2), uint8(0x0f), 1e-3)
	f.Add(int64(5), uint8(2), uint8(0x04), 1e-310) // 1/N overflows: NaN utilities
	f.Fuzz(func(t *testing.T, seed int64, qlen, flags uint8, n float64) {
		if !(n > 0) || math.IsInf(n, 0) {
			return
		}
		qlen = 1 + qlen%4
		rng := rand.New(rand.NewSource(seed))
		pick := func(zeroOdds int, scale float64) float64 {
			switch rng.Intn(zeroOdds) {
			case 0:
				return 0
			case 1:
				return scale * 1e6 * rng.Float64()
			}
			return scale * rng.Float64()
		}
		cat := lav.NewCatalog()
		buckets := make([][]lav.SourceID, qlen)
		for b := range buckets {
			for j := 0; j < 1+rng.Intn(4); j++ {
				st := lav.Stats{
					Tuples:       1 + pick(4, 1000),
					Overhead:     pick(4, 5),
					TransmitCost: pick(4, 0.01),
					FailureProb:  rng.Float64() * 0.99,
					AccessFee:    pick(3, 2),
					TupleFee:     pick(3, 0.05),
				}
				buckets[b] = append(buckets[b], cat.MustAdd(fmt.Sprintf("S%d_%d", b, j), nil, st).ID)
			}
		}
		prm := Params{N: n, Failure: flags&1 != 0, Caching: flags&2 != 0}
		monetary := flags&4 != 0
		var ctx measure.Context
		if monetary {
			ctx = NewMonetaryPerTuple(cat, prm).NewContext()
		} else {
			ctx = NewChainCost(cat, prm).NewContext()
		}
		ref := newRefContext(cat, prm, monetary)
		all := planspace.NewSpace(buckets).Enumerate()
		for i := 0; i < int(flags>>4)%4; i++ {
			d := all[rng.Intn(len(all))]
			ctx.Observe(d)
			ref.Observe(d)
		}
		p := all[rng.Intn(len(all))]
		got, gotPanic := evalRecover(ctx.Evaluate, p)
		want, wantPanic := evalRecover(ref.Evaluate, p)
		if gotPanic != wantPanic {
			t.Fatalf("plan %s: panic %v, reference panic %v", p.Key(), gotPanic, wantPanic)
		}
		if !gotPanic && (math.Float64bits(got.Lo) != math.Float64bits(got.Hi) || !sameBits(got, want)) {
			t.Fatalf("plan %s: float64 loop %v (%x) != reference %v (%x)", p.Key(),
				got, math.Float64bits(got.Lo), want, math.Float64bits(want.Lo))
		}
	})
}

func evalRecover(eval func(*planspace.Plan) interval.Interval, p *planspace.Plan) (iv interval.Interval, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	return eval(p), false
}

// TestHoistedLinearMatchesLegacy: same differential for LinearCost
// (precomputed term table + shared group hulls vs direct recomputation).
func TestHoistedLinearMatchesLegacy(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		cat, buckets := testCatalog(seed, 3, 6)
		space := planspace.NewSpace(buckets)
		hoisted := NewLinearCost(cat).NewContext()
		legacy := (&LinearCost{cat: cat}).NewContext()
		rng := rand.New(rand.NewSource(seed))
		all := space.Enumerate()
		frontier := []*planspace.Plan{space.Root(abstraction.ByTuples(cat))}
		for len(frontier) > 0 {
			p := frontier[rng.Intn(len(frontier))]
			if a, b := hoisted.Evaluate(p), legacy.Evaluate(p); a != b {
				t.Fatalf("seed=%d plan %s: hoisted %v != legacy %v", seed, p.Key(), a, b)
			}
			if p.Concrete() {
				break
			}
			frontier = p.Refine()
		}
		for i := 0; i < 10; i++ {
			p := all[rng.Intn(len(all))]
			if a, b := hoisted.Evaluate(p), legacy.Evaluate(p); a != b {
				t.Fatalf("seed=%d plan %s: hoisted %v != legacy %v", seed, p.Key(), a, b)
			}
		}
		// BucketOrder consumes the precomputed terms.
		hm := NewLinearCost(cat)
		lm := &LinearCost{cat: cat}
		for b, srcs := range buckets {
			ho, _ := hm.BucketOrder(b, srcs)
			lo, _ := lm.BucketOrder(b, srcs)
			for i := range ho {
				if ho[i] != lo[i] {
					t.Fatalf("seed=%d bucket %d: order differs at %d", seed, b, i)
				}
			}
		}
	}
}
