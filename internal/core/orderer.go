// Package core implements the paper's plan-ordering algorithms:
//
//   - Greedy (Section 4) for fully monotonic utility measures;
//   - Drips (Section 5.1), the abstraction-based best-plan finder;
//   - iDrips (Section 5.2), iterated Drips with plan-space splitting;
//   - Streamer (Figure 5), abstract-once ordering with a dominance graph;
//   - PI, the plan-independence-aware brute-force baseline of Section 6;
//   - Exhaustive, the naive reference used by correctness tests.
//
// All algorithms solve Definition 2.1: produce concrete plans in exactly
// decreasing order of conditional utility u(p | p1..pi-1, Q), incrementally
// via Next(), without materializing the full Cartesian product where the
// algorithm permits.
package core

import (
	"qporder/internal/interval"
	"qporder/internal/measure"
	"qporder/internal/planspace"
)

// Orderer produces the plan ordering incrementally.
type Orderer interface {
	// Next returns the next best concrete plan and its utility at
	// selection time (conditioned on all previously returned plans), or
	// ok=false when the plan space is exhausted.
	Next() (p *planspace.Plan, utility float64, ok bool)

	// Context exposes the measure context for instrumentation (evaluation
	// counts, executed prefix).
	Context() measure.Context
}

// Take drains up to k plans from an orderer, returning the plans and
// their utilities. It stops at the first Next that reports exhaustion
// and never calls Next again afterwards; that final unproductive call is
// recorded by the orderer's "core.<algo>.next_exhausted" counter when
// the orderer is instrumented (see Instrument).
func Take(o Orderer, k int) ([]*planspace.Plan, []float64) {
	plans := make([]*planspace.Plan, 0, k)
	utils := make([]float64, 0, k)
	for len(plans) < k {
		p, u, ok := o.Next()
		if !ok {
			break
		}
		plans = append(plans, p)
		utils = append(utils, u)
	}
	return plans, utils
}

// betterPlan reports whether (ua, pa) precedes (ub, pb) in the canonical
// output order: higher utility first, then plan key for deterministic
// tie-breaking. The key order comes from planspace.CompareKey, which
// orders like the keys without building them.
func betterPlan(ua float64, pa *planspace.Plan, ub float64, pb *planspace.Plan) bool {
	if ua != ub {
		return ua > ub
	}
	return planspace.CompareKey(pa, pb) < 0
}

// dominates implements the Drips dominance test with the tie-break that
// keeps the relation acyclic: p dominates q when Lo(p) >= Hi(q), except
// that identical point intervals defer to key order (DESIGN.md §3).
func dominates(up, uq interval.Interval, keyP, keyQ string) bool {
	if up.Lo > uq.Hi {
		return true
	}
	if up.Lo == uq.Hi {
		if uq.Lo == up.Hi { // identical point intervals
			return keyP < keyQ
		}
		return true
	}
	return false
}

// dominatesPlan is dominates on plans, with the key tie-break taken by
// planspace.CompareKey as in betterPlan.
func dominatesPlan(up, uq interval.Interval, p, q *planspace.Plan) bool {
	if up.Lo > uq.Hi {
		return true
	}
	if up.Lo == uq.Hi {
		if uq.Lo == up.Hi { // identical point intervals
			return planspace.CompareKey(p, q) < 0
		}
		return true
	}
	return false
}
