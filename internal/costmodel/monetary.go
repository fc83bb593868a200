package costmodel

import (
	"fmt"
	"math"

	"qporder/internal/interval"
	"qporder/internal/lav"
	"qporder/internal/measure"
	"qporder/internal/planspace"
)

// MonetaryPerTuple is the fourth experimental utility of Section 6: the
// average monetary cost per output tuple,
//
//	u(p) = −Cost$(p) / NumOutputTuples(p)
//
// where Cost$ follows the chain formula (2) over the sources' monetary
// fees (AccessFee per access, TupleFee per transmitted item) and
// NumOutputTuples is the chain's final output estimate, as in [23].
// The ratio destroys the correlation between the tuple-count abstraction
// heuristic and utility, which is what makes abstraction ineffective in
// panels (j)-(l) of Figure 6.
type MonetaryPerTuple struct {
	prm Params
	tab *chainTable
}

// NewMonetaryPerTuple returns the measure; Params.N must be positive.
// Params.Failure is ignored (fees are charged whether or not retries
// happen at the transport level).
//
// The measure reads cat once, here, into a coefficient table its contexts
// share. cat must already hold every source the measure will see:
// evaluating a plan over a source added to cat afterwards panics.
func NewMonetaryPerTuple(cat *lav.Catalog, prm Params) *MonetaryPerTuple {
	if prm.N <= 0 {
		panic(fmt.Sprintf("costmodel: Params.N = %g, want > 0", prm.N))
	}
	prm.Failure = false
	return &MonetaryPerTuple{prm: prm, tab: newChainTable(cat, prm, true)}
}

// Name implements measure.Measure.
func (m *MonetaryPerTuple) Name() string {
	n := "monetary-per-tuple"
	if m.prm.Caching {
		n += "+caching"
	}
	return n
}

// FullyMonotonic implements measure.Measure.
func (m *MonetaryPerTuple) FullyMonotonic() bool { return false }

// DiminishingReturns implements measure.Measure.
func (m *MonetaryPerTuple) DiminishingReturns() bool { return !m.prm.Caching }

// PrefixIndependent implements measure.PrefixIndependent: like ChainCost,
// utilities only depend on the executed prefix when caching is on.
func (m *MonetaryPerTuple) PrefixIndependent() bool { return !m.prm.Caching }

// BucketOrder implements measure.Measure.
func (m *MonetaryPerTuple) BucketOrder(int, []lav.SourceID) ([]lav.SourceID, bool) {
	return nil, false
}

// NewContext implements measure.Measure.
func (m *MonetaryPerTuple) NewContext() measure.Context {
	c := &monetaryCtx{m: m}
	if m.prm.Caching {
		c.cached = newOpCache(m.tab)
	}
	return c
}

type monetaryCtx struct {
	measure.Base
	m      *MonetaryPerTuple
	cached *opCache // nil when caching is off
}

func (c *monetaryCtx) Measure() measure.Measure { return c.m }

// Evaluate implements measure.Context.
func (c *monetaryCtx) Evaluate(p *planspace.Plan) interval.Interval {
	c.CountEval()
	if cost, out, ok := c.m.tab.concreteCost(p, c.cached); ok && out != 0 {
		// cost.Div(out) on points: one multiply by the reciprocal, with
		// Interval.Mul's math.Min/Max turning a NaN into math.NaN().
		u := cost * (1 / out)
		if u != u {
			u = math.NaN()
		}
		return interval.Point(-u)
	}
	// out is positive unless it underflows (huge N), and Div then panics.
	cost, out := c.m.tab.intervalCost(p, c.cached)
	return cost.Div(out).Neg()
}

// Observe implements measure.Context.
func (c *monetaryCtx) Observe(d *planspace.Plan) {
	c.Record(d)
	if c.cached != nil {
		c.cached.add(d)
	}
}

// Independent implements measure.Context.
func (c *monetaryCtx) Independent(p, d *planspace.Plan) bool {
	if c.cached == nil {
		return c.CountIndep(true)
	}
	return c.CountIndep(structuralIndependent(p, d))
}

// IndependentWitness implements measure.Context.
func (c *monetaryCtx) IndependentWitness(p *planspace.Plan, ds []*planspace.Plan) bool {
	if c.cached == nil {
		return true
	}
	return structuralWitness(p, ds)
}

var _ measure.Measure = (*MonetaryPerTuple)(nil)
var _ measure.Context = (*monetaryCtx)(nil)
