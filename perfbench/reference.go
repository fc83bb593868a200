package main

import (
	"fmt"

	"qporder/internal/costmodel"
	"qporder/internal/execsim"
	"qporder/internal/lav"
	"qporder/internal/measure"
	"qporder/internal/mediator"
	"qporder/internal/schema"
)

// stream is the observable outcome of one session or request: the plan
// keys and utilities in output order and, for executed sessions, the
// rendered plans and the distinct-answer total.
type stream struct {
	Keys    []string
	Utils   []float64
	Plans   []string
	Answers int
}

// mix is one (algorithm, measure) pair a session requests.
type mix struct {
	Algo    string
	Measure string
}

func (m mix) String() string { return m.Algo + "/" + m.Measure }

// measureFactory mirrors qpserved's measure names (N = 50000).
func measureFactory(name string) (func(*lav.Catalog) measure.Measure, error) {
	p := costmodel.Params{N: 50000}
	switch name {
	case "linear":
		return func(e *lav.Catalog) measure.Measure { return costmodel.NewLinearCost(e) }, nil
	case "chain":
		return func(e *lav.Catalog) measure.Measure { return costmodel.NewChainCost(e, p) }, nil
	case "chain-fail":
		p.Failure = true
		return func(e *lav.Catalog) measure.Measure { return costmodel.NewChainCost(e, p) }, nil
	case "monetary":
		return func(e *lav.Catalog) measure.Measure { return costmodel.NewMonetaryPerTuple(e, p) }, nil
	}
	return nil, fmt.Errorf("unknown measure %q", name)
}

// mediatorConfig builds the mediator configuration a daemon uses for a
// session of this mix over prep, optionally restricted to one shard.
func mediatorConfig(prep *mediator.Prepared, m mix, shard, shards int) (mediator.Config, error) {
	mf, err := measureFactory(m.Measure)
	if err != nil {
		return mediator.Config{}, err
	}
	cfg := mediator.Config{Prepared: prep, Measure: mf, Algorithm: mediator.Algorithm(m.Algo)}
	if shards > 1 {
		cfg.ShardIndex, cfg.ShardCount = shard, shards
	}
	return cfg, nil
}

// world is the daemon-equivalent execution environment: the catalog the
// daemon loaded, its simulated source contents, and its seed.
type world struct {
	cat  *lav.Catalog
	db   execsim.DB
	seed int64
}

// engine returns a fresh per-session engine, as qpserved makes one.
func (w *world) engine() *execsim.Engine {
	e := execsim.NewEngine(w.cat, w.db)
	e.EnableFailures(w.seed + 2)
	return e
}

// referenceStream runs the sequential in-memory mediator for one
// session: the stream a single qpserved must produce.
func referenceStream(w *world, prep *mediator.Prepared, m mix, k, shard, shards int) (stream, error) {
	cfg, err := mediatorConfig(prep, m, shard, shards)
	if err != nil {
		return stream{}, err
	}
	var s stream
	cfg.OnPlan = func(e mediator.PlanEvent) {
		s.Keys = append(s.Keys, e.Key)
		s.Utils = append(s.Utils, e.Utility)
		s.Plans = append(s.Plans, e.Plan.String())
	}
	sys, err := mediator.New(cfg)
	if err != nil {
		return stream{}, err
	}
	res, err := sys.Run(w.engine(), mediator.Budget{MaxPlans: k})
	if err != nil {
		return stream{}, err
	}
	s.Answers = res.Answers.Len()
	return s, nil
}

// checkExact compares a served stream with its reference: identical
// plan keys and utilities in the same order, the same rendered plans
// where both carry them, and the same answer total.
func checkExact(got, want stream) error {
	if len(got.Keys) != len(want.Keys) {
		return fmt.Errorf("%d plans, want %d", len(got.Keys), len(want.Keys))
	}
	for i := range want.Keys {
		if got.Keys[i] != want.Keys[i] || got.Utils[i] != want.Utils[i] {
			return fmt.Errorf("plan %d is %s (u=%g), want %s (u=%g)",
				i+1, got.Keys[i], got.Utils[i], want.Keys[i], want.Utils[i])
		}
		if i < len(got.Plans) && i < len(want.Plans) && got.Plans[i] != want.Plans[i] {
			return fmt.Errorf("plan %d renders %q, want %q", i+1, got.Plans[i], want.Plans[i])
		}
	}
	if got.Answers != want.Answers {
		return fmt.Errorf("%d answers, want %d", got.Answers, want.Answers)
	}
	return nil
}

// canonicalKey is the session-cache key qpserved uses for a query.
func canonicalKey(q *schema.Query) string { return q.CanonicalKey() + "|" + string(mediator.Buckets) }
