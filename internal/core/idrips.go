package core

import (
	"qporder/internal/abstraction"
	"qporder/internal/measure"
	"qporder/internal/obs"
	"qporder/internal/planspace"
)

// IDrips is the iterated-Drips orderer of Section 5.2. Each Next call
// runs Drips from the abstract roots of every remaining plan space to
// find the current best plan (conditioned on the executed prefix), and
// removes that plan by plan-space splitting. The re-evaluation of the
// roots and the re-established dominance comparisons are the duplicated
// work the paper contrasts with Streamer.
//
// Spaces are immutable, so a space's abstraction is a pure function of
// the space: each space is abstracted once, in the first Next after the
// split that created it, and its root plan is reused until the space is
// split in turn.
type IDrips struct {
	ctx    measure.Context
	heur   abstraction.Heuristic
	spaces []*planspace.Space
	roots  []*planspace.Plan // roots[i] abstracts spaces[i]; nil until needed
	c      counters
	par    parcfg
	trace  traceState
}

// NewIDrips builds the orderer over the given spaces with the given
// grouping heuristic.
func NewIDrips(spaces []*planspace.Space, m measure.Measure, heur abstraction.Heuristic) *IDrips {
	cp := append([]*planspace.Space(nil), spaces...)
	return &IDrips{ctx: m.NewContext(), heur: heur, spaces: cp, roots: make([]*planspace.Plan, len(cp))}
}

// Context implements Orderer.
func (d *IDrips) Context() measure.Context { return d.ctx }

// Instrument implements Instrumented.
func (d *IDrips) Instrument(reg *obs.Registry) {
	d.c = newCounters(reg, "idrips")
	d.c.bindTrace(&d.trace)
	bindContext(d.ctx, reg, "idrips")
	d.par.bind(reg)
}

// SetTrace implements Traced.
func (d *IDrips) SetTrace(tr *obs.Trace) {
	d.trace.set(tr, d.ctx)
	d.c.bindTrace(&d.trace)
}

// Parallelism implements Parallel: candidate evaluation inside each
// Drips run fans out to n workers. Output is identical to the sequential
// run for every n.
func (d *IDrips) Parallelism(n int) { d.par.set(n) }

// Next implements Orderer.
func (d *IDrips) Next() (*planspace.Plan, float64, bool) {
	defer d.c.endNext(d.c.startNext())
	if len(d.spaces) == 0 {
		d.c.exhausted.Inc()
		return nil, 0, false
	}
	// Abstract the spaces the last split created, then run Drips over all
	// roots jointly.
	for i, r := range d.roots {
		if r == nil {
			d.roots[i] = d.spaces[i].Root(d.heur)
		}
	}
	best, util := dripsBest(d.ctx, d.roots, d.c, d.par.evaluator(d.ctx, "idrips"))
	d.ctx.Observe(best)

	// Remove the winner from its (unique) containing space by splitting.
	srcs := best.Sources()
	idx := -1
	for i, s := range d.spaces {
		if s.Contains(srcs) {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic("core: iDrips winner not contained in any space: " + best.Key())
	}
	d.c.split()
	subs := d.spaces[idx].Remove(srcs)
	d.spaces = append(d.spaces[:idx], d.spaces[idx+1:]...)
	d.spaces = append(d.spaces, subs...)
	d.roots = append(d.roots[:idx], d.roots[idx+1:]...)
	d.roots = append(d.roots, make([]*planspace.Plan, len(subs))...)
	d.trace.emitPlan("idrips", best, util, d.ctx.Evals())
	return best, util, true
}

var _ Orderer = (*IDrips)(nil)
var _ Parallel = (*IDrips)(nil)
var _ Traced = (*IDrips)(nil)
