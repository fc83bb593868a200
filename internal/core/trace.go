package core

import (
	"qporder/internal/measure"
	"qporder/internal/obs"
	"qporder/internal/planspace"
)

// Traced is implemented by orderers that can attach per-request plan
// provenance to a request trace. Unlike Instrument, which aggregates
// into a shared registry, SetTrace scopes the recorded work to one
// request: each emitted plan carries the dominance tests, refinements,
// splits, and evaluations spent since the previous emission.
type Traced interface {
	// SetTrace binds the orderer's provenance recording to tr; nil
	// detaches it (the disabled state, which must stay allocation-free
	// on the Next path). Binding is not concurrency-safe with Next.
	SetTrace(tr *obs.Trace)
}

// SetTrace binds tr to o when o supports it; otherwise it is a no-op.
// A nil tr always detaches, so callers can apply it unconditionally.
func SetTrace(o Orderer, tr *obs.Trace) {
	if t, ok := o.(Traced); ok {
		t.SetTrace(tr)
	}
}

// provCounts accumulates the per-Next provenance deltas. Every recording
// happens on the Next goroutine: dominance tests, refinements and splits
// never fan out to pool workers.
type provCounts struct {
	domWon  int64 // dominance tests the incumbent won (pruned a plan)
	domLost int64 // dominance tests that failed to prune
	refines int64
	splits  int64
}

// traceState is the per-orderer provenance recorder. Its zero value is
// the disabled state: emitPlan is then a nil check and nothing else.
type traceState struct {
	tr        *obs.Trace
	prov      provCounts
	emitted   int // next plan index on the trace
	lastEvals int // ctx.Evals() at the previous emission
}

// set binds (or, with a nil tr, unbinds) the trace and re-synchronizes
// the delta baselines with the measure context's current state.
func (t *traceState) set(tr *obs.Trace, ctx measure.Context) {
	t.tr = tr
	t.emitted = tr.PlanCount()
	t.lastEvals = ctx.Evals()
	t.prov = provCounts{}
}

// provPtr returns the counter sink the orderer's counters should feed,
// nil when tracing is disabled (keeping the hot path identical to the
// untraced build).
func (t *traceState) provPtr() *provCounts {
	if t.tr == nil {
		return nil
	}
	return &t.prov
}

// emitPlan records one emitted plan's provenance: the utility at
// selection and the work spent since the previous emission. evals is
// the measure context's cumulative Evaluate count at emission time.
func (t *traceState) emitPlan(algo string, p *planspace.Plan, u float64, evals int) {
	if t.tr == nil {
		return
	}
	t.tr.EmitPlan(obs.PlanProvenance{
		Index:       t.emitted,
		Algo:        algo,
		Plan:        p.Key(),
		Utility:     u,
		DomWon:      t.prov.domWon,
		DomLost:     t.prov.domLost,
		Refinements: t.prov.refines,
		Splits:      t.prov.splits,
		Evals:       int64(evals - t.lastEvals),
	})
	t.prov = provCounts{}
	t.emitted++
	t.lastEvals = evals
}
