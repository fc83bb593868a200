// Package costmodel implements the cost-based utility measures of
// Sections 3 and 6:
//
//   - LinearCost: measure (1), cost(ViVj) = (h+αᵢnᵢ) + (h+αⱼnⱼ) —
//     fully monotonic, so Greedy applies;
//   - ChainCost: measure (2), the semijoin chain
//     cost = (h+α₁n₁) + Σₖ (h+αₖ·outₖ), outₖ = nₖ·outₖ₋₁/N — monotonic
//     only wrt the last subgoal; optional per-access failure probability
//     (expected retries inflate the overhead to h/(1-f)) and optional
//     caching of source operations (a cached operation costs zero);
//   - MonetaryPerTuple: the average monetary cost per output tuple,
//     u(p) = Cost$(p)/NumOutputTuples(p) with Cost$ computed by the chain
//     formula over access/tuple fees.
//
// All utilities are negated costs, so higher utility is always better.
package costmodel

import (
	"fmt"
	"sort"

	"qporder/internal/interval"
	"qporder/internal/lav"
	"qporder/internal/planspace"
)

// Params configures the shared cost machinery.
type Params struct {
	// N is the total number of items in each subgoal's domain — the
	// selectivity denominator of cost measure (2). Must be positive.
	N float64
	// Failure applies the expected-retry factor 1/(1-FailureProb) to each
	// access overhead ("cost with probability of source failure").
	Failure bool
	// Caching zeroes the cost of source operations whose results were
	// cached by a previously executed plan. A source operation is the pair
	// (plan position, source), following Section 6's caching experiments.
	Caching bool
}

// opCache is the set of cached source operations, a source operation
// being position k accessing source s: bit k*nsrc+s of a position-major
// bitmap over the measure's catalog. A nil cache means caching is off.
type opCache struct {
	tab  *chainTable
	nsrc int
	bits []uint64
}

func newOpCache(t *chainTable) *opCache { return &opCache{tab: t, nsrc: len(t.rows)} }

func (c *opCache) add(d *planspace.Plan) {
	for k, n := range d.Nodes {
		s := n.Source()
		c.tab.row(s) // rejects sources the table does not know
		i := k*c.nsrc + int(s)
		for i>>6 >= len(c.bits) {
			c.bits = append(c.bits, 0)
		}
		c.bits[i>>6] |= 1 << (i & 63)
	}
}

// has reports whether position k's access to s is cached; s must be in
// the table (callers look its row up first).
func (c *opCache) has(k int, s lav.SourceID) bool {
	if c == nil {
		return false
	}
	i := k*c.nsrc + int(s)
	return i>>6 < len(c.bits) && c.bits[i>>6]&(1<<(i&63)) != 0
}

// structuralIndependent reports the sound caching-independence oracle:
// executing d cannot change the utility of any concrete plan in p iff no
// member of p can share a source operation with d, i.e. for every
// position, d's source is not among p's members there.
func structuralIndependent(p, d *planspace.Plan) bool {
	if p.Len() != d.Len() {
		return false
	}
	for k, n := range p.Nodes {
		dk := d.Nodes[k].Source()
		for _, v := range n.Sources {
			if v == dk {
				return false
			}
		}
	}
	return true
}

// structuralWitness reports whether some concrete plan in p shares no
// source operation with any plan in ds. The per-position check is exact
// for this oracle: positions can be chosen independently.
func structuralWitness(p *planspace.Plan, ds []*planspace.Plan) bool {
	for _, d := range ds {
		if d.Len() != p.Len() {
			return false
		}
	}
	for k, n := range p.Nodes {
		found := false
		for _, v := range n.Sources {
			used := false
			for _, d := range ds {
				if d.Nodes[k].Source() == v {
					used = true
					break
				}
			}
			if !used {
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

// effectiveOverhead returns h, inflated to h/(1-f) when failures apply.
func effectiveOverhead(st lav.Stats, failure bool) float64 {
	if failure {
		return st.Overhead / (1 - st.FailureProb)
	}
	return st.Overhead
}

// leafCoef is one source's row of the chain formula's coefficient table:
// every catalog statistic the formula reads, in the form it reads them.
type leafCoef struct {
	tuples float64 // Tuples: the output of a position-0 access
	tN     float64 // Tuples/Params.N: a later access's output factor
	coef   float64 // TransmitCost (time) or TupleFee (monetary)
	base   float64 // effective overhead (time) or AccessFee (monetary)
}

// chainTable is the immutable evaluation state shared by every context of
// a chain-family measure: one leafCoef per catalog source, indexed by
// lav.SourceID and read once, at construction.
type chainTable struct {
	invN float64 // 1/Params.N
	rows []leafCoef
}

// newChainTable reads cat once. useFees selects the monetary coefficients
// (TupleFee/AccessFee) instead of the time ones (TransmitCost/overhead).
func newChainTable(cat *lav.Catalog, prm Params, useFees bool) *chainTable {
	t := &chainTable{invN: 1 / prm.N, rows: make([]leafCoef, cat.Len())}
	for i := range t.rows {
		st := cat.Source(lav.SourceID(i)).Stats
		r := leafCoef{tuples: st.Tuples, tN: st.Tuples / prm.N}
		if useFees {
			r.coef, r.base = st.TupleFee, st.AccessFee
		} else {
			r.coef, r.base = st.TransmitCost, effectiveOverhead(st, prm.Failure)
		}
		t.rows[i] = r
	}
	return t
}

// row returns source s's coefficients. A source the table does not hold
// was added to the catalog after the measure was built, which breaks the
// constructors' contract.
func (t *chainTable) row(s lav.SourceID) *leafCoef {
	if uint(s) >= uint(len(t.rows)) {
		t.unknown(s)
	}
	return &t.rows[s]
}

func (t *chainTable) unknown(s lav.SourceID) {
	panic(fmt.Sprintf("costmodel: source %d is not among the %d sources the measure was built over; "+
		"the catalog grew after the measure was built (build measures over a complete catalog)", s, len(t.rows)))
}

// concreteCost is the chain formula on a plan with one source per
// position; ok is false on any other plan. Every interval of
// intervalCost is then a point, and each interval operation on points is
// exactly the one float64 operation written here, in the same order, so
// the results are bit-identical.
func (t *chainTable) concreteCost(p *planspace.Plan, cached *opCache) (cost, outLast float64, ok bool) {
	for k, n := range p.Nodes {
		if len(n.Sources) != 1 {
			return 0, 0, false
		}
		s := n.Sources[0]
		r := t.row(s)
		var cm float64
		if !cached.has(k, s) {
			if k == 0 {
				cm = r.coef*r.tuples + r.base
			} else {
				cm = r.coef*(r.tN*outLast) + r.base
			}
		}
		if k == 0 {
			outLast = r.tuples
		} else {
			outLast = t.invN * (r.tuples * outLast)
		}
		cost += cm
	}
	return cost, outLast, true
}

// intervalCost returns the cost interval of the semijoin chain for plan
// p and the chain's final output-size interval (the monetary
// denominator); cached may be nil (no caching). Each position's cost term
// is the hull of its members' terms, and its output size spans the
// members' Tuples range.
func (t *chainTable) intervalCost(p *planspace.Plan, cached *opCache) (cost, outLast interval.Interval) {
	prevOut := interval.Point(0) // output of the previous position
	total := interval.Point(0)
	for k, n := range p.Nodes {
		var costIv interval.Interval
		var minN, maxN float64
		for i, s := range n.Sources {
			r := t.row(s)
			cm := interval.Point(0)
			if !cached.has(k, s) {
				outM := interval.Point(r.tuples)
				if k > 0 {
					outM = prevOut.Scale(r.tN)
				}
				cm = outM.Scale(r.coef).Add(interval.Point(r.base))
			}
			if i == 0 {
				costIv = cm
				minN, maxN = r.tuples, r.tuples
				continue
			}
			costIv = costIv.Hull(cm)
			if r.tuples < minN {
				minN = r.tuples
			}
			if r.tuples > maxN {
				maxN = r.tuples
			}
		}
		outIv := interval.New(minN, maxN)
		if k > 0 {
			outIv = outIv.Mul(prevOut).Scale(t.invN)
		}
		total = total.Add(costIv)
		prevOut = outIv
	}
	return total, prevOut
}

// sortBestFirst returns sources ordered ascending by key (lowest cost
// first), breaking ties by ID for determinism.
func sortBestFirst(sources []lav.SourceID, key func(lav.SourceID) float64) []lav.SourceID {
	out := append([]lav.SourceID(nil), sources...)
	sort.SliceStable(out, func(i, j int) bool {
		ki, kj := key(out[i]), key(out[j])
		if ki != kj {
			return ki < kj
		}
		return out[i] < out[j]
	})
	return out
}
