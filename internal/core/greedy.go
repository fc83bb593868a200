package core

import (
	"container/heap"
	"fmt"

	"qporder/internal/abstraction"
	"qporder/internal/lav"
	"qporder/internal/measure"
	"qporder/internal/obs"
	"qporder/internal/planspace"
)

// Greedy is the Section 4 algorithm for fully monotonic utility measures.
// Each plan space keeps its buckets sorted best-first, so its best plan is
// the tuple of first sources. A priority queue over spaces yields the
// global best plan; removing it splits its space by the recursive
// splitting construction (Figure 2), and the sub-spaces' best plans enter
// the queue. Each Next is O(n·m·log k) after an O(n·m·log m) setup.
//
// Greedy requires the measure to be fully monotonic; the fully monotonic
// measures in this codebase are also fully plan-independent, so per-bucket
// orders never change as plans execute.
type Greedy struct {
	ctx   measure.Context
	m     measure.Measure
	pq    spaceHeap
	c     counters
	par   parcfg
	trace traceState
}

// spaceEntry is one plan space with its best plan's utility.
type spaceEntry struct {
	space *planspace.Space // buckets stored best-first
	best  *planspace.Plan
	util  float64
}

type spaceHeap []*spaceEntry

func (h spaceHeap) Len() int { return len(h) }
func (h spaceHeap) Less(i, j int) bool {
	return betterPlan(h[i].util, h[i].best, h[j].util, h[j].best)
}
func (h spaceHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *spaceHeap) Push(x interface{}) { *h = append(*h, x.(*spaceEntry)) }
func (h *spaceHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// NewGreedy builds the orderer. It returns an error if the measure is not
// fully monotonic (Greedy would produce a wrong ordering).
func NewGreedy(spaces []*planspace.Space, m measure.Measure) (*Greedy, error) {
	if !m.FullyMonotonic() {
		return nil, fmt.Errorf("core: Greedy requires a fully monotonic measure, %s is not", m.Name())
	}
	g := &Greedy{ctx: m.NewContext(), m: m}
	for _, s := range spaces {
		ordered, err := orderSpace(s, m)
		if err != nil {
			return nil, err
		}
		g.pq = append(g.pq, g.entryFor(ordered))
	}
	heap.Init(&g.pq)
	return g, nil
}

// orderSpace returns a copy of the space with every bucket sorted
// best-first by the measure's per-bucket total order.
func orderSpace(s *planspace.Space, m measure.Measure) (*planspace.Space, error) {
	buckets := make([][]lav.SourceID, s.Len())
	for i, b := range s.Buckets {
		ordered, ok := m.BucketOrder(i, b)
		if !ok {
			return nil, fmt.Errorf("core: measure %s has no total order for bucket %d", m.Name(), i)
		}
		buckets[i] = ordered
	}
	return &planspace.Space{Buckets: buckets}, nil
}

// bestPlanOf builds the space's best plan: the tuple of first sources
// (buckets must already be sorted best-first).
func bestPlanOf(s *planspace.Space) *planspace.Plan {
	nodes := make([]*abstraction.Node, s.Len())
	for i, b := range s.Buckets {
		nodes[i] = &abstraction.Node{Bucket: i, Sources: []lav.SourceID{b[0]}}
	}
	return planspace.New(nodes...)
}

// entryFor evaluates the space's best plan and wraps it as a queue entry.
func (g *Greedy) entryFor(s *planspace.Space) *spaceEntry {
	best := bestPlanOf(s)
	util := g.ctx.Evaluate(best).Lo
	return &spaceEntry{space: s, best: best, util: util}
}

// Context implements Orderer.
func (g *Greedy) Context() measure.Context { return g.ctx }

// Instrument implements Instrumented.
func (g *Greedy) Instrument(reg *obs.Registry) {
	g.c = newCounters(reg, "greedy")
	g.c.bindTrace(&g.trace)
	bindContext(g.ctx, reg, "greedy")
	g.par.bind(reg)
}

// SetTrace implements Traced.
func (g *Greedy) SetTrace(tr *obs.Trace) {
	g.trace.set(tr, g.ctx)
	g.c.bindTrace(&g.trace)
}

// Parallelism implements Parallel. Greedy's per-Next work is one
// evaluation per sub-space (at most the query length), so fan-out only
// engages on wide splits; the knob exists so every orderer honors the
// same configuration surface.
func (g *Greedy) Parallelism(n int) { g.par.set(n) }

// Next implements Orderer.
func (g *Greedy) Next() (*planspace.Plan, float64, bool) {
	defer g.c.endNext(g.c.startNext())
	if g.pq.Len() == 0 {
		g.c.exhausted.Inc()
		return nil, 0, false
	}
	top := heap.Pop(&g.pq).(*spaceEntry)
	d := top.best
	g.ctx.Observe(d)
	g.c.split()
	// Splitting preserves the best-first bucket order: Remove keeps the
	// relative order of remaining sources and pins prefixes to singletons.
	subs := top.space.Remove(d.Sources())
	if ev := g.par.evaluator(g.ctx, "greedy"); ev != nil && ev.Parallel(len(subs)) {
		bests := make([]*planspace.Plan, len(subs))
		for i, sub := range subs {
			bests[i] = bestPlanOf(sub)
		}
		for i, u := range ev.Eval(bests) {
			heap.Push(&g.pq, &spaceEntry{space: subs[i], best: bests[i], util: u.Lo})
		}
	} else {
		for _, sub := range subs {
			heap.Push(&g.pq, g.entryFor(sub))
		}
	}
	g.trace.emitPlan("greedy", d, top.util, g.ctx.Evals())
	return d, top.util, true
}

var _ Orderer = (*Greedy)(nil)
var _ Parallel = (*Greedy)(nil)
var _ Traced = (*Greedy)(nil)
