package core

import (
	"qporder/internal/measure"
	"qporder/internal/obs"
	"qporder/internal/planspace"
)

// Exhaustive is the naive reference orderer: it materializes every
// concrete plan and, for each Next call, re-evaluates every remaining
// plan's conditional utility and returns the maximum. It is correct for
// every utility measure and serves as the ground truth in tests. With
// Parallelism(n), the per-Next full re-evaluation shards across workers
// and the shard winners merge deterministically.
type Exhaustive struct {
	ctx     measure.Context
	remain  []*planspace.Plan
	started bool
	c       counters
	par     parcfg
	trace   traceState
}

// NewExhaustive builds the orderer over the concrete plans of the given
// spaces.
func NewExhaustive(spaces []*planspace.Space, m measure.Measure) *Exhaustive {
	var plans []*planspace.Plan
	for _, s := range spaces {
		plans = append(plans, s.Enumerate()...)
	}
	return &Exhaustive{ctx: m.NewContext(), remain: plans}
}

// Context implements Orderer.
func (e *Exhaustive) Context() measure.Context { return e.ctx }

// Instrument implements Instrumented.
func (e *Exhaustive) Instrument(reg *obs.Registry) {
	e.c = newCounters(reg, "exhaustive")
	e.c.bindTrace(&e.trace)
	bindContext(e.ctx, reg, "exhaustive")
	e.par.bind(reg)
}

// SetTrace implements Traced.
func (e *Exhaustive) SetTrace(tr *obs.Trace) {
	e.trace.set(tr, e.ctx)
	e.c.bindTrace(&e.trace)
}

// Parallelism implements Parallel.
func (e *Exhaustive) Parallelism(n int) { e.par.set(n) }

// Next implements Orderer.
func (e *Exhaustive) Next() (*planspace.Plan, float64, bool) {
	defer e.c.endNext(e.c.startNext())
	if len(e.remain) == 0 {
		e.c.exhausted.Inc()
		return nil, 0, false
	}
	var bestIdx int
	var bestU float64
	if ev := e.par.evaluator(e.ctx, "exhaustive"); ev != nil && ev.Parallel(len(e.remain)) {
		utils := make([]float64, len(e.remain))
		ev.Map(len(e.remain), func(ctx measure.Context, i int) {
			utils[i] = ctx.Evaluate(e.remain[i]).Lo // concrete: point
		})
		bestIdx = ev.Pool().Best(len(e.remain), func(i, j int) bool {
			return betterPlan(utils[i], e.remain[i], utils[j], e.remain[j])
		})
		bestU = utils[bestIdx]
	} else {
		bestIdx = -1
		for i, p := range e.remain {
			u := e.ctx.Evaluate(p).Lo // concrete: point
			if bestIdx < 0 || betterPlan(u, p, bestU, e.remain[bestIdx]) {
				bestIdx, bestU = i, u
			}
		}
	}
	d := e.remain[bestIdx]
	e.remain = append(e.remain[:bestIdx], e.remain[bestIdx+1:]...)
	e.ctx.Observe(d)
	e.trace.emitPlan("exhaustive", d, bestU, e.ctx.Evals())
	return d, bestU, true
}

var _ Orderer = (*Exhaustive)(nil)
var _ Parallel = (*Exhaustive)(nil)
var _ Traced = (*Exhaustive)(nil)
