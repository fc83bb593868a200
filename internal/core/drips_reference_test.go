package core

import (
	"fmt"
	"testing"

	"qporder/internal/abstraction"
	"qporder/internal/measure"
	"qporder/internal/obs"
	"qporder/internal/parallel"
	"qporder/internal/planspace"
	"qporder/internal/workload"
)

// dripsBestReference is the textbook Drips loop the heap frontier
// replaced, kept as a test oracle: every round it sweeps the whole
// frontier for the incumbent and the candidates it dominates, scans for
// termination, and scans again for the refinement target. Tie-breaks
// compare built string keys, so the oracle is independent of
// planspace.CompareKey.
func dripsBestReference(ctx measure.Context, roots []*planspace.Plan, c counters,
	ev *parallel.Evaluator) (*planspace.Plan, float64) {
	cands := make([]*dripsCand, 0, len(roots))
	for i, u := range evalAll(ctx, ev, roots) {
		cands = append(cands, &dripsCand{p: roots[i], u: u, conc: roots[i].Concrete()})
	}
	for {
		cands = pruneDominatedReference(cands, c)
		allConcrete := true
		for _, c := range cands {
			if !c.conc {
				allConcrete = false
				break
			}
		}
		if allConcrete {
			best := cands[0]
			for _, c := range cands[1:] {
				if c.u.Lo > best.u.Lo || (c.u.Lo == best.u.Lo && c.p.Key() < best.p.Key()) {
					best = c
				}
			}
			return best.p, best.u.Lo
		}
		ri := -1
		for i, c := range cands {
			if c.conc {
				continue
			}
			if ri < 0 || refineBeforeReference(c, cands[ri]) {
				ri = i
			}
		}
		target := cands[ri]
		cands = append(cands[:ri], cands[ri+1:]...)
		c.refine()
		children := target.p.Refine()
		for i, u := range evalAll(ctx, ev, children) {
			cands = append(cands, &dripsCand{p: children[i], u: u, conc: children[i].Concrete()})
		}
	}
}

func refineBeforeReference(a, b *dripsCand) bool {
	if a.u.Hi != b.u.Hi {
		return a.u.Hi > b.u.Hi
	}
	if a.u.Width() != b.u.Width() {
		return a.u.Width() > b.u.Width()
	}
	return a.p.Key() < b.p.Key()
}

// pruneDominatedReference removes every candidate dominated by the
// candidate with the maximum lower bound, testing all of them.
func pruneDominatedReference(cands []*dripsCand, cnt counters) []*dripsCand {
	if len(cands) <= 1 {
		return cands
	}
	w := cands[0]
	for _, c := range cands[1:] {
		if c.u.Lo > w.u.Lo || (c.u.Lo == w.u.Lo && c.p.Key() < w.p.Key()) {
			w = c
		}
	}
	out := cands[:0]
	for _, c := range cands {
		if c == w {
			out = append(out, c)
			continue
		}
		dominated := dominates(w.u, c.u, w.p.Key(), c.p.Key())
		cnt.domTest(dominated)
		if !dominated {
			out = append(out, c)
		}
	}
	return out
}

// referenceIDrips is iDrips as it stood before the heap frontier: every
// Next re-abstracts every space and runs dripsBestReference.
type referenceIDrips struct {
	ctx    measure.Context
	heur   abstraction.Heuristic
	spaces []*planspace.Space
	c      counters
	par    parcfg
}

func (d *referenceIDrips) Next() (*planspace.Plan, float64, bool) {
	if len(d.spaces) == 0 {
		return nil, 0, false
	}
	roots := make([]*planspace.Plan, len(d.spaces))
	for i, s := range d.spaces {
		roots[i] = s.Root(d.heur)
	}
	best, util := dripsBestReference(d.ctx, roots, d.c, d.par.evaluator(d.ctx, "ref"))
	d.ctx.Observe(best)
	srcs := best.Sources()
	for i, s := range d.spaces {
		if s.Contains(srcs) {
			subs := s.Remove(srcs)
			d.spaces = append(append(d.spaces[:i], d.spaces[i+1:]...), subs...)
			return best, util, true
		}
	}
	panic("reference iDrips: winner not contained in any space")
}

// TestIDripsMatchesReference is the differential oracle for the heap
// frontier and abstract-once roots: on every Next, iDrips must return the
// reference's winner and utility after the same number of evaluations,
// independence checks and refinements, for every measure, both grouping
// heuristics, and at parallelism 1 and 8.
func TestIDripsMatchesReference(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 6
	}
	for seed := 0; seed < seeds; seed++ {
		qlen := 2 + seed%3
		bucket := []int{5, 4, 3}[seed%3]
		d := workload.Generate(workload.Config{
			QueryLen: qlen, BucketSize: bucket, Universe: 512, Zones: 1 + seed%3, Seed: int64(100 + seed),
		})
		spaces := []*planspace.Space{d.Space}
		total := int(d.Space.Size())
		heurs := []abstraction.Heuristic{
			abstraction.ByKey("cov-sim", d.SimilarityKey),
			abstraction.ByTuples(d.Catalog),
		}
		for _, m := range measuresFor(d) {
			for _, heur := range heurs {
				for _, par := range []int{1, 8} {
					got := NewIDrips(spaces, m, heur)
					gotReg := obs.NewRegistry()
					got.Instrument(gotReg)
					got.Parallelism(par)
					ref := &referenceIDrips{ctx: m.NewContext(), heur: heur, spaces: spaces}
					refReg := obs.NewRegistry()
					ref.c = newCounters(refReg, "idrips")
					ref.par.set(par)
					for step := 0; step <= total; step++ {
						gp, gu, gok := got.Next()
						rp, ru, rok := ref.Next()
						where := func() string {
							return fmt.Sprintf("%s/%s/seed %d/par %d/step %d", m.Name(), heur.Name(), seed, par, step)
						}
						if gok != rok {
							t.Fatalf("%s: ok %v, reference %v", where(), gok, rok)
						}
						if !gok {
							break
						}
						if gp.Key() != rp.Key() || gu != ru {
							t.Fatalf("%s: winner %s (%g), reference %s (%g)", where(), gp.Key(), gu, rp.Key(), ru)
						}
						if ge, re := got.Context().Evals(), ref.ctx.Evals(); ge != re {
							t.Fatalf("%s: Evals %d, reference %d", where(), ge, re)
						}
						gc, gh := got.Context().IndepStats()
						rc, rh := ref.ctx.IndepStats()
						if gc != rc || gh != rh {
							t.Fatalf("%s: IndepStats (%d,%d), reference (%d,%d)", where(), gc, gh, rc, rh)
						}
						name := "core.idrips.refinements"
						if g, r := gotReg.Counter(name).Value(), refReg.Counter(name).Value(); g != r {
							t.Fatalf("%s: refinements %d, reference %d", where(), g, r)
						}
					}
				}
			}
		}
	}
}
