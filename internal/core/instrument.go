package core

import (
	"time"

	"qporder/internal/measure"
	"qporder/internal/obs"
)

// Instrumented is implemented by orderers that can bind per-algorithm
// work counters to an observability registry.
type Instrumented interface {
	// Instrument binds the orderer's work counters (and its measure
	// context's evaluation counters) to reg. A nil reg disables
	// instrumentation; binding is not concurrency-safe with Next.
	Instrument(reg *obs.Registry)
}

// Instrument binds reg to o when o supports it. Both a nil reg and an
// uninstrumentable orderer are fine: the call is then a no-op.
func Instrument(o Orderer, reg *obs.Registry) {
	if i, ok := o.(Instrumented); ok {
		i.Instrument(reg)
	}
}

// counters bundles one algorithm's work counters. The zero value (all
// nil) is the disabled state: every recording method is a nil-check and
// nothing else, so uninstrumented hot paths stay allocation-free.
//
// Counter names, with their paper meaning (see README "Observability"):
//
//	core.<algo>.dominance_tests — interval dominance tests Lo(w) >= Hi(q)
//	    of the incumbent w against a candidate q (Section 5.1's pruning
//	    comparisons) that the orderer actually performs: for iDrips, the
//	    candidates each Drips round pops off its min-Hi heap plus the one
//	    that stops the round; for Streamer, the incumbent sweep after each
//	    output and the lazy tests at the refinement heap's top;
//	core.<algo>.refinements     — abstract-plan refinements, replacing an
//	    abstract node by its children (Section 5.1);
//	core.<algo>.splits          — plan-space splits removing an output
//	    plan (the Figure 2 construction);
//	core.<algo>.next_calls      — Next() invocations;
//	core.<algo>.next_exhausted  — Next() calls that returned ok=false;
//	core.<algo>.next_ns         — per-Next() latency, the "delay" of
//	    ranked-enumeration work (time between consecutive outputs).
//
// The same per-Next clock read also becomes a NextSpan span on the
// bound request trace, so a mediator's order phase is timed once.
type counters struct {
	domTests  *obs.Counter
	refines   *obs.Counter
	splits    *obs.Counter
	nextCalls *obs.Counter
	exhausted *obs.Counter
	nextNs    *obs.Histogram
	// prov, when non-nil, additionally accumulates per-Next provenance
	// deltas for the bound request trace (see traceState). It is a
	// pointer because counters travels by value into dripsBest while
	// the deltas must land in the orderer's single accumulator.
	prov *provCounts
	// tr is the bound request trace (see traceState), nil when none.
	tr *obs.Trace
}

// NextSpan names the span each Next call records on a bound request
// trace.
const NextSpan = "core/next"

// domTest records one interval dominance test and whether the incumbent
// won it (the tested plan was pruned).
func (c *counters) domTest(dominated bool) {
	c.domTests.Inc()
	if p := c.prov; p != nil {
		if dominated {
			p.domWon++
		} else {
			p.domLost++
		}
	}
}

// refine records one abstract-plan refinement.
func (c *counters) refine() {
	c.refines.Inc()
	if p := c.prov; p != nil {
		p.refines++
	}
}

// split records one plan-space split.
func (c *counters) split() {
	c.splits.Inc()
	if p := c.prov; p != nil {
		p.splits++
	}
}

// newCounters resolves the per-algorithm instrument names on reg; with a
// nil reg every instrument is nil (disabled). The nil short-circuit
// matters: it skips the name concatenations, keeping the disabled path
// allocation-free.
func newCounters(reg *obs.Registry, algo string) counters {
	if reg == nil {
		return counters{}
	}
	return counters{
		domTests:  reg.Counter("core." + algo + ".dominance_tests"),
		refines:   reg.Counter("core." + algo + ".refinements"),
		splits:    reg.Counter("core." + algo + ".splits"),
		nextCalls: reg.Counter("core." + algo + ".next_calls"),
		exhausted: reg.Counter("core." + algo + ".next_exhausted"),
		nextNs:    reg.Histogram("core." + algo + ".next_ns"),
	}
}

// bindTrace points the counters at the orderer's trace state: the
// provenance sink and the request trace Next spans land on.
func (c *counters) bindTrace(t *traceState) {
	c.prov = t.provPtr()
	c.tr = t.tr
}

// startNext begins timing one Next call; it returns the zero time when
// neither the latency histogram nor a trace is bound, so endNext can
// skip the clock read.
func (c *counters) startNext() time.Time {
	c.nextCalls.Inc()
	if c.nextNs == nil && c.tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// endNext records the Next call begun by startNext: one duration feeds
// the latency histogram and the trace span.
func (c *counters) endNext(start time.Time) {
	if !start.IsZero() {
		c.tr.ObservePhase(NextSpan, start, c.nextNs)
	}
}

// bindContext attaches the measure context's evaluation and
// independence-oracle counters under the algorithm's name.
func bindContext(ctx measure.Context, reg *obs.Registry, algo string) {
	if reg == nil {
		return
	}
	ctx.Bind(reg, "measure."+algo)
}
