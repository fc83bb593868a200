package core

import (
	"qporder/internal/interval"
	"qporder/internal/measure"
	"qporder/internal/parallel"
	"qporder/internal/planspace"
)

// dripsCand is one candidate plan in a Drips run. Concreteness is
// cached at construction (Plan.Concrete walks all nodes per call); dead
// marks a candidate that was pruned or refined, which the lazy heaps
// drop when it surfaces.
type dripsCand struct {
	p    *planspace.Plan
	u    interval.Interval
	conc bool
	dead bool
}

// candHeap is a lazy-deletion binary heap of Drips candidates: less
// orders it (the best candidate at cs[0]), and dead candidates are only
// dropped when they surface. It is hand-rolled rather than a
// container/heap because the sift loops dominate a Drips run and the
// interface calls cost as much as the comparisons.
type candHeap struct {
	cs   []*dripsCand
	less func(a, b *dripsCand) bool
}

func (h *candHeap) push(c *dripsCand) {
	h.cs = append(h.cs, c)
	for i := len(h.cs) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(h.cs[i], h.cs[p]) {
			break
		}
		h.cs[i], h.cs[p] = h.cs[p], h.cs[i]
		i = p
	}
}

// pop removes cs[0].
func (h *candHeap) pop() {
	n := len(h.cs) - 1
	h.cs[0] = h.cs[n]
	h.cs[n] = nil
	h.cs = h.cs[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && h.less(h.cs[r], h.cs[m]) {
			m = r
		}
		if !h.less(h.cs[m], h.cs[i]) {
			break
		}
		h.cs[i], h.cs[m] = h.cs[m], h.cs[i]
		i = m
	}
}

// top returns the best live candidate, dropping dead ones on the way;
// nil when none is left.
func (h *candHeap) top() *dripsCand {
	for len(h.cs) > 0 {
		if c := h.cs[0]; !c.dead {
			return c
		}
		h.pop()
	}
	return nil
}

func loFirst(a, b *dripsCand) bool     { return betterPlan(a.u.Lo, a.p, b.u.Lo, b.p) }
func refineFirst(a, b *dripsCand) bool { return refineBefore(a.u, a.p, b.u, b.p) }
func minHiFirst(a, b *dripsCand) bool  { return a.u.Hi < b.u.Hi }

// frontier is a Drips run's candidate set, held in three heaps over the
// same candidates: every live candidate is in lo and hi, every live
// abstract one also in ref.
type frontier struct {
	lo, ref, hi candHeap
}

// add admits plans with their utilities (one slab for the batch).
func (f *frontier) add(plans []*planspace.Plan, us []interval.Interval) {
	cs := make([]dripsCand, len(plans))
	for i, p := range plans {
		c := &cs[i]
		*c = dripsCand{p: p, u: us[i], conc: p.Concrete()}
		f.lo.push(c)
		f.hi.push(c)
		if !c.conc {
			f.ref.push(c)
		}
	}
}

// prune removes every candidate the incumbent w dominates. w is the
// (Lo desc, key asc) maximum and candidate keys are distinct, so for
// c != w, dominatesPlan(w, c) holds exactly when Hi(c) <= Lo(w) (on
// identical point intervals w wins the key tie-break): the candidates
// to drop are a prefix of the min-Hi heap. w itself is held aside.
// Each live candidate tested against w counts as one dominance test.
func (f *frontier) prune(w *dripsCand, cnt counters) {
	held := false
	for len(f.hi.cs) > 0 {
		c := f.hi.cs[0]
		if c == w || c.dead {
			f.hi.pop()
			held = held || c == w
			continue
		}
		dominated := c.u.Hi <= w.u.Lo
		cnt.domTest(dominated)
		if !dominated {
			break
		}
		f.hi.pop()
		c.dead = true
	}
	if held {
		f.hi.push(w)
	}
}

// DripsBest runs the Drips refinement loop (Section 5.1) over the given
// abstract root plans and returns the best concrete plan with its
// utility, conditioned on ctx's executed prefix. Candidates are evaluated
// as intervals; dominated candidates (Lo(p) >= Hi(q)) are eliminated
// without evaluating their concrete plans; the most promising abstract
// candidate (highest upper bound) is refined each round.
//
// roots must be non-empty, collectively non-empty and cover disjoint
// plan sets (as the roots of disjoint spaces do); the winner always
// exists.
func DripsBest(ctx measure.Context, roots []*planspace.Plan) (*planspace.Plan, float64) {
	return dripsBest(ctx, roots, counters{}, nil)
}

// dripsBest is DripsBest with work counters (disabled when c is zero)
// and an optional parallel evaluator (nil = sequential). Candidate
// evaluation fans out to the evaluator's pool; results merge back in
// candidate order, so the refinement trajectory — and hence the winner —
// is identical to the sequential run.
//
// Each round prunes what the incumbent dominates and refines the best
// live abstract candidate; when none is left, the incumbent is the
// winner. The heaps make a round logarithmic in the frontier instead of
// the three linear scans (dominance sweep, termination check, argmax) of
// the textbook loop.
func dripsBest(ctx measure.Context, roots []*planspace.Plan, c counters,
	ev *parallel.Evaluator) (*planspace.Plan, float64) {
	f := frontier{lo: candHeap{less: loFirst}, ref: candHeap{less: refineFirst}, hi: candHeap{less: minHiFirst}}
	us := evalAll(ctx, ev, roots) // reused: add copies each batch out
	f.add(roots, us)
	for {
		w := f.lo.top()
		f.prune(w, c)
		t := f.ref.top()
		if t == nil {
			return w.p, w.u.Lo
		}
		f.ref.pop()
		t.dead = true
		c.refine()
		children := t.p.Refine()
		us = evalInto(ctx, ev, children, us)
		f.add(children, us)
	}
}

// refineBefore orders refinement priority: higher upper bound first, then
// wider interval, then key (deterministic).
func refineBefore(ua interval.Interval, pa *planspace.Plan, ub interval.Interval, pb *planspace.Plan) bool {
	if ua.Hi != ub.Hi {
		return ua.Hi > ub.Hi
	}
	if ua.Width() != ub.Width() {
		return ua.Width() > ub.Width()
	}
	return planspace.CompareKey(pa, pb) < 0
}
