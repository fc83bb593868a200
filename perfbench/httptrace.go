package main

import (
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"
)

// traceHTTP is the traced run of an HTTP workload. It times the phases
// the client sees on the live daemons, samples sessions sent both
// through the router and straight to a shard, and replays the live
// session list in-process with a span around every layer call.
func traceHTTP(e *httpEnv, d time.Duration, rec *recorder, pl map[string]float64) (attempted, failed int, err error) {
	c := newClient()
	defer c.CloseIdleConnections()
	fail := func(err error) {
		failed++
		reportFailure(err)
	}

	// Live phase: client-side phase spans and daemon counters.
	before, err := e.counterSums(c)
	if err != nil {
		return 0, 0, err
	}
	outs, _ := closedLoop(httpClients, e.block, minSamples(0.5), d/3, func(i int) outcome {
		t0 := time.Now()
		o := e.run(c, e.entry, e.at(i))
		if o.Err == nil {
			root := rec.add("http.session", 0, i, t0, t0.Add(o.Done))
			rec.add("http.headers", root, i, t0, t0.Add(o.Headers))
			rec.add("http.stream", root, i, t0.Add(o.Headers), t0.Add(o.Done))
		}
		return o
	})
	after, err := e.counterSums(c)
	if err != nil {
		return 0, 0, err
	}
	var headers, firstPlan, gaps, full []float64
	for _, o := range outs {
		attempted++
		if o.Err != nil {
			fail(o.Err)
			continue
		}
		headers = append(headers, ms1(o.Headers))
		firstPlan = append(firstPlan, ms1(o.FirstPlan))
		full = append(full, ms1(o.Done))
		for j := 1; j < len(o.PlanAt); j++ {
			gaps = append(gaps, ms1(o.PlanAt[j]-o.PlanAt[j-1]))
		}
	}
	live := len(outs)
	pl["http.headers_ms"] = median(headers)
	pl["http.first_plan_ms"] = median(firstPlan)
	pl["http.plan_gap_ms"] = median(gaps)
	hits := float64(after["server.cache_hits"] - before["server.cache_hits"])
	misses := float64(after["server.cache_misses"] - before["server.cache_misses"])
	pl["server.cache_hit_ratio"] = ratio(hits, hits+misses)
	if len(e.shards) > 1 {
		lo, hi := math.Inf(1), 0.0
		for i := range e.shards {
			name := fmt.Sprintf("fleet.shard%d.sessions", i)
			n := float64(after[name] - before[name])
			lo, hi = math.Min(lo, n), math.Max(hi, n)
		}
		pl["fleet.shard_skew"] = ratio(hi, lo)
		a, f, err := e.sampleHops(c, live, pl)
		attempted += a
		failed += f
		if err != nil {
			return attempted, failed, err
		}
	}

	// Replay: a warm-up block, an untraced pass over whole blocks of the
	// live session list, then the same sessions traced.
	n := e.block * max(1, live/e.block/4)
	pass := func(r *replayer, count int) (time.Duration, error) {
		if err := r.warm(); err != nil {
			return 0, err
		}
		t0 := time.Now()
		for i := 0; i < count; i++ {
			attempted++
			if err := r.session(i, e.at(i)); err != nil {
				fail(err)
			}
		}
		return time.Since(t0), nil
	}
	if _, err := pass(newReplayer(e, newRecorder(false)), min(e.block, n)); err != nil {
		return attempted, failed, err
	}
	plain, err := pass(newReplayer(e, newRecorder(false)), n)
	if err != nil {
		return attempted, failed, err
	}
	rt0 := readRuntime()
	r := newReplayer(e, rec)
	traced, err := pass(r, n)
	if err != nil {
		return attempted, failed, err
	}
	rt1 := readRuntime()

	pl["schema.parse_us"] = median(usOf(rec.durations("schema.parse")))
	pl["reformulate.prepare_ms"] = median(msOf(rec.durations("reformulate.prepare")))
	pl["mediator.new_us"] = median(usOf(rec.durations("mediator.new")))
	pl["containment.sound_us"] = median(usOf(rec.durations("containment.sound")))
	pl["execsim.execute_ms"] = median(msOf(rec.durations("execsim.execute")))
	pl["server.encode_us"] = median(usOf(rec.durations("server.encode")))
	pl["execsim.new_answer_frac"] = ratio(float64(r.fresh), float64(r.returned))
	pl["execsim.mallocs_per_plan"] = ratio(float64(r.execAllocs), float64(r.plans))
	pl["runtime.gc_cpu_frac"] = ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU)
	pl["trace.overhead_frac"] = ratio(float64(traced-plain), float64(plain))
	pl["trace.unaccounted_frac"] = rec.unaccountedFrac("session")
	// Execution's share of a live session: replayed execution time per
	// session over the live session time.
	var exec time.Duration
	for _, x := range rec.durations("execsim.execute") {
		exec += x
	}
	pl["execsim.share"] = ratio(ms1(exec)/float64(n), mean(full))
	return attempted, failed, nil
}

// sampleHops measures the fleet's own cost on a sample of sessions.
// An affinity session goes through the router (filling the shard's
// cache), straight to the shard the ring picks, then through the router
// again: the hop is the second routed session minus the direct one. A
// scatter session goes through the router, as its slices sent straight
// to the shards at once, and through the router again: the merge cost
// is the second gathered session's done minus the arrival, on the
// slowest direct slice, of its last plan among the merged first k (the
// router stops reading a slice once it has the k best plans).
func (e *httpEnv) sampleHops(c *http.Client, live int, pl map[string]float64) (attempted, failed int, err error) {
	const hopSamples, scatterSamples = 20, 10
	var hops, merges []float64
	check := func(o outcome) bool {
		attempted++
		if o.Err != nil {
			failed++
			reportFailure(o.Err)
			return false
		}
		return true
	}
	for i := 0; i < live && (len(hops) < hopSamples || len(merges) < scatterSamples); i++ {
		s := e.at(i)
		if !s.Req.Scatter && len(hops) < hopSamples {
			url, err := e.shardOf(s.Req.Query)
			if err != nil {
				return attempted, failed, err
			}
			a := e.run(c, e.entry, s)
			b := e.run(c, url, s)
			r := e.run(c, e.entry, s)
			okA, okB, okR := check(a), check(b), check(r)
			if okA && okB && okR {
				hops = append(hops, ms1(r.Done-b.Done))
			}
		}
		if s.Req.Scatter && len(merges) < scatterSamples {
			a := e.run(c, e.entry, s)
			slices := make([]outcome, len(e.shards))
			var wg sync.WaitGroup
			for sh, d := range e.shards {
				wg.Add(1)
				go func(sh int, url string) {
					defer wg.Done()
					req := s.Req
					req.Scatter = false
					req.Shard = &shardSpec{Index: sh, Count: len(e.shards)}
					slices[sh] = e.run(c, url, httpSession{Req: req, Ref: sliceKey(s.Ref, sh)})
				}(sh, d.URL)
			}
			wg.Wait()
			r := e.run(c, e.entry, s)
			okA, okR := check(a), check(r)
			ok := okA && okR
			// A slice is done, for the gather, once its last plan among
			// the merged first k has arrived.
			merged := map[string]bool{}
			for _, k := range e.refs[s.Ref].Keys {
				merged[k] = true
			}
			var slowest time.Duration
			for _, o := range slices {
				ok = check(o) && ok
				for j, k := range o.Stream.Keys {
					if merged[k] {
						slowest = max(slowest, o.PlanAt[j])
					}
				}
			}
			if ok {
				merges = append(merges, ms1(r.Done-slowest))
			}
		}
	}
	pl["fleet.hop_ms"] = median(hops)
	pl["fleet.scatter_merge_ms"] = median(merges)
	return attempted, failed, nil
}

// counterSums adds up the shards' and the router's registry counters.
func (e *httpEnv) counterSums(c *http.Client) (map[string]int64, error) {
	sum := map[string]int64{}
	for _, d := range e.daemons {
		cs, err := counters(c, d.URL)
		if err != nil {
			return nil, err
		}
		for k, v := range cs {
			sum[k] += v
		}
	}
	return sum, nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
