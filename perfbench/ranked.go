package main

import (
	"fmt"
	"math"

	"qporder/internal/adaptive"
	"qporder/internal/core"
	"qporder/internal/experiment"
	"qporder/internal/planspace"
	"qporder/internal/workload"
)

// utilEqual compares utilities up to floating-point evaluation order.
func utilEqual(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// checkRanked verifies Definition 2.1 for an orderer's output over
// domain d: at every position the plan's utility is the best conditional
// utility any remaining plan has given the plans before it, and the plan
// really has that utility. PI, the reference orderer, runs in lockstep.
// Where the output picks a different plan of the same utility (DESIGN.md
// §3 lets utility-equal plans come in either order), the check evaluates
// the output's plan under the prefix and restarts PI conditioned on the
// output's own prefix.
func checkRanked(d *workload.Domain, mk experiment.MeasureKey, plans []*planspace.Plan, utils []float64) error {
	m, err := experiment.BuildMeasure(d, mk)
	if err != nil {
		return err
	}
	var ref core.Orderer = core.NewPI([]*planspace.Space{d.Space}, m)
	seen := make(map[string]bool, len(plans))
	for i, p := range plans {
		if seen[p.Key()] {
			return fmt.Errorf("plan %d (%s) repeats", i+1, p.Key())
		}
		seen[p.Key()] = true
		rp, ru, ok := ref.Next()
		if !ok {
			return fmt.Errorf("plan %d: the plan space holds only %d plans", i+1, i)
		}
		if !utilEqual(utils[i], ru) {
			return fmt.Errorf("plan %d is %s with utility %g; the best remaining plan %s has %g",
				i+1, p.Key(), utils[i], rp.Key(), ru)
		}
		if rp.Key() == p.Key() {
			continue
		}
		ctx := m.NewContext()
		for _, q := range plans[:i] {
			ctx.Observe(q)
		}
		if u := ctx.Evaluate(p); !utilEqual(u.Lo, utils[i]) || !utilEqual(u.Hi, utils[i]) {
			return fmt.Errorf("plan %d (%s) reports utility %g but evaluates to [%g, %g]", i+1, p.Key(), utils[i], u.Lo, u.Hi)
		}
		ref = core.NewPI(adaptive.RemainingSpaces([]*planspace.Space{d.Space}, plans[:i+1]), m)
		for _, q := range plans[:i+1] {
			ref.Context().Observe(q)
		}
	}
	return nil
}
