package main

import (
	"bytes"
	"container/list"
	"encoding/json"
	"fmt"
	"sort"

	"qporder/internal/execsim"
	"qporder/internal/mediator"
	"qporder/internal/schema"
	"qporder/internal/server"
)

// lru models one daemon's session cache: which sessions miss and
// therefore run mediator.Prepare.
type lru struct {
	max   int
	ll    *list.List
	byKey map[string]*list.Element
}

func newLRU(max int) *lru { return &lru{max: max, ll: list.New(), byKey: map[string]*list.Element{}} }

// get returns the cached value for key, or stores build()'s result.
func (c *lru) get(key string, build func() (*mediator.Prepared, error)) (*mediator.Prepared, error) {
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*lruEntry).prep, nil
	}
	p, err := build()
	if err != nil {
		return nil, err
	}
	c.byKey[key] = c.ll.PushFront(&lruEntry{key, p})
	for c.ll.Len() > c.max {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.byKey, back.Value.(*lruEntry).key)
	}
	return p, nil
}

type lruEntry struct {
	key  string
	prep *mediator.Prepared
}

// replayer re-runs HTTP sessions in-process through the layers' public
// entry points — parse, Prepare, mediator.New, then per plan Next,
// IsSound, PlanQuery, ExecutePlan, AnswerSet.Add and event encoding —
// timing each call as a span when its recorder is on.
type replayer struct {
	e      *httpEnv
	rec    *recorder
	caches []*lru

	returned, fresh, plans int
	execAllocs             uint64
}

func newReplayer(e *httpEnv, rec *recorder) *replayer {
	r := &replayer{e: e, rec: rec}
	for range e.shards {
		r.caches = append(r.caches, newLRU(cacheCapacity))
	}
	return r
}

// warm fills every modelled cache the way set-up filled the daemons':
// serve-join's daemon holds the generated-order chain query.
func (r *replayer) warm() error {
	if r.e.name != "serve-join" {
		return nil
	}
	q := chainQuery(chainLen)
	sp := r.rec.start("reformulate.prepare", 0, -1)
	_, err := r.caches[0].get(canonicalKey(q), func() (*mediator.Prepared, error) {
		return mediator.Prepare(q, r.e.w.cat, mediator.Buckets)
	})
	r.rec.end(sp)
	return err
}

// planOut is one executed plan of a replayed slice.
type planOut struct {
	key, plan string
	u         float64
	out       []schema.Atom
}

// session replays session i and checks its stream against the
// reference.
func (r *replayer) session(i int, s httpSession) error {
	root := r.rec.start("session", 0, i)
	defer r.rec.end(root)
	m := r.e.mixes[s.Ref]
	var got stream
	if !s.Req.Scatter {
		shard := 0
		if len(r.e.shards) > 1 {
			sp := r.rec.start("fleet.route", root, i)
			url, err := r.e.shardOf(s.Req.Query)
			r.rec.end(sp)
			if err != nil {
				return err
			}
			for j, d := range r.e.shards {
				if d.URL == url {
					shard = j
				}
			}
		}
		outs, err := r.shardSession(root, i, s, m, shard, 0)
		if err != nil {
			return err
		}
		got = streamOf(outs)
	} else {
		var all []planOut
		for sh := range r.e.shards {
			outs, err := r.shardSession(root, i, s, m, sh, len(r.e.shards))
			if err != nil {
				return err
			}
			all = append(all, outs...)
		}
		sp := r.rec.start("fleet.merge", root, i)
		got = r.merge(all, s.Req.K)
		r.rec.end(sp)
	}
	if err := checkExact(got, r.e.refs[s.Ref]); err != nil {
		return fmt.Errorf("replay of %q (%s) diverged from the daemon's stream: %w", s.Req.Query, m, err)
	}
	return nil
}

// shardSession is one daemon's part of a session: the whole session,
// or one slice of a scatter session when shards > 1.
func (r *replayer) shardSession(root, i int, s httpSession, m mix, shard, shards int) ([]planOut, error) {
	rec := r.rec
	sp := rec.start("schema.parse", root, i)
	q, err := schema.ParseQuery(s.Req.Query)
	var key string
	if err == nil {
		key = canonicalKey(q)
	}
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	prep, err := r.caches[shard].get(key, func() (*mediator.Prepared, error) {
		sp := rec.start("reformulate.prepare", root, i)
		defer rec.end(sp)
		return mediator.Prepare(q, r.e.w.cat, mediator.Buckets)
	})
	if err != nil {
		return nil, err
	}
	pd := r.e.preps[key].PD
	sp = rec.start("mediator.new", root, i)
	cfg, err := mediatorConfig(prep, m, shard, shards)
	var sys *mediator.System
	if err == nil {
		sys, err = mediator.New(cfg)
	}
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	o := sys.Orderer()
	eng := r.e.w.engine()
	answers := execsim.NewAnswerSet()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	var outs []planOut
	for len(outs) < s.Req.K {
		sp := rec.start("core.next", root, i)
		p, u, ok := o.Next()
		rec.end(sp)
		if !ok {
			break
		}
		sp = rec.start("containment.sound", root, i)
		sound, err := pd.IsSound(p)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		if !sound {
			continue
		}
		sp = rec.start("reformulate.plan_query", root, i)
		pq, err := pd.PlanQuery(p)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		sp = rec.start("execsim.execute", root, i)
		var a0 uint64
		if rec.on {
			a0 = heapAllocs()
		}
		out, err := eng.ExecutePlan(pq)
		if rec.on {
			r.execAllocs += heapAllocs() - a0
		}
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		sp = rec.start("execsim.answer_add", root, i)
		before := answers.Len()
		fresh := answers.Add(out)
		rec.end(sp)
		r.returned += len(out)
		r.fresh += fresh
		r.plans++

		sp = rec.start("server.encode", root, i)
		plan := pq.String()
		err = enc.Encode(server.Event{Event: "plan", Index: len(outs) + 1, Utility: u, Plan: plan,
			PlanKey: p.Key(), NewAnswers: fresh, TotalAnswers: answers.Len()})
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		outs = append(outs, planOut{p.Key(), plan, u, out})
		if fresh > 0 {
			sp = rec.start("server.encode", root, i)
			rendered := make([]string, fresh)
			for j, a := range answers.Atoms()[before:] {
				rendered[j] = a.String()
			}
			err = enc.Encode(server.Event{Event: "answers", Index: len(outs), Answers: rendered})
			rec.end(sp)
			if err != nil {
				return nil, err
			}
		}
		buf.Reset()
	}
	return outs, nil
}

// merge gathers scatter slices in the router's canonical order.
func (r *replayer) merge(all []planOut, k int) stream {
	sort.Slice(all, func(i, j int) bool {
		if all[i].u != all[j].u {
			return all[i].u > all[j].u
		}
		return all[i].key < all[j].key
	})
	if len(all) > k {
		all = all[:k]
	}
	return streamOf(all)
}

// streamOf renders executed plans as a stream, counting the distinct
// answers of all of them.
func streamOf(outs []planOut) stream {
	var s stream
	answers := execsim.NewAnswerSet()
	for _, o := range outs {
		s.Keys = append(s.Keys, o.key)
		s.Utils = append(s.Utils, o.u)
		s.Plans = append(s.Plans, o.plan)
		answers.Add(o.out)
	}
	s.Answers = answers.Len()
	return s
}
