package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"qporder/internal/core"
	"qporder/internal/experiment"
	"qporder/internal/obs"
	"qporder/internal/planspace"
	"qporder/internal/store"
	"qporder/internal/workload"
)

// order-k domains: query length 3, overlap rate 0.3 (three coverage
// zones), at two bucket sizes, from a fixed generator seed.
const (
	orderK        = 10
	orderSeed     = 42
	orderZones    = 3
	orderQueryLen = 3
)

var (
	orderBuckets  = []int{40, 60}
	orderMeasures = []experiment.MeasureKey{experiment.MeasureCoverage, experiment.MeasureChainFailCache, experiment.MeasureMonetary}
	orderAlgos    = []experiment.Algorithm{experiment.AlgoPI, experiment.AlgoIDrips, experiment.AlgoStreamer}
)

// cell is one (domain, measure, algorithm) request kind.
type cell struct {
	dom     string // "b40", "b60" or "b40-store"
	d       *workload.Domain
	measure experiment.MeasureKey
	algo    experiment.Algorithm
	// keys and utils are the cell's output, checked once in set-up
	// against Definition 2.1 (or, for a store-backed cell, against its
	// in-memory twin); every request must repeat them exactly.
	keys  []string
	utils []float64
}

func (c *cell) name() string { return fmt.Sprintf("%s/%s/%s", c.dom, c.algo, c.measure) }

// orderEnv is a set-up order-k workload.
type orderEnv struct {
	cells []*cell
	st    *store.Store
	seed  int64
}

func (e *orderEnv) close() {
	if e.st != nil {
		e.st.Close()
	}
}

// setupOrder generates the domains, writes and opens the segment store
// of the b=40 domain, and runs every in-memory cell once, checking its
// output; that run is also the warm-up.
func setupOrder(work string, seed int64) (*orderEnv, error) {
	e := &orderEnv{seed: seed}
	doms := map[int]*workload.Domain{}
	for _, b := range orderBuckets {
		doms[b] = workload.Generate(workload.Config{QueryLen: orderQueryLen, BucketSize: b, Zones: orderZones, Seed: orderSeed})
	}
	dir := filepath.Join(work, "store-b40")
	if err := store.WriteDomain(dir, doms[40]); err != nil {
		return nil, err
	}
	st, sd, err := store.Load(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	e.st = st
	for _, b := range orderBuckets {
		d := doms[b]
		for _, m := range orderMeasures {
			for _, a := range orderAlgos {
				c := &cell{dom: fmt.Sprintf("b%d", b), d: d, measure: m, algo: a}
				plans, utils, err := c.take()
				if err != nil {
					continue // the algorithm does not apply to the measure
				}
				if err := checkRanked(d, m, plans, utils); err != nil {
					e.close()
					return nil, fmt.Errorf("%s: %w", c.name(), err)
				}
				c.keys, c.utils = keysOf(plans), utils
				e.cells = append(e.cells, c)
				if b == 40 && m == experiment.MeasureCoverage {
					e.cells = append(e.cells, &cell{dom: "b40-store", d: sd, measure: m, algo: a, keys: c.keys, utils: c.utils})
				}
			}
		}
	}
	return e, nil
}

// take runs one untimed request.
func (c *cell) take() ([]*planspace.Plan, []float64, error) {
	o, err := experiment.BuildOrderer(c.d, c.measure, c.algo)
	if err != nil {
		return nil, nil, err
	}
	plans, utils := core.Take(o, orderK)
	return plans, utils, nil
}

func keysOf(plans []*planspace.Plan) []string {
	keys := make([]string, len(plans))
	for i, p := range plans {
		keys[i] = p.Key()
	}
	return keys
}

// check compares one request's output with the cell's checked output.
func (c *cell) check(keys []string, utils []float64) error {
	if err := checkExact(stream{Keys: keys, Utils: utils}, stream{Keys: c.keys, Utils: c.utils}); err != nil {
		return fmt.Errorf("%s: %w", c.name(), err)
	}
	return nil
}

// at returns request i's cell: each block holds every cell once, in a
// seeded order.
func (e *orderEnv) at(i int) *cell {
	b, pos := i/len(e.cells), i%len(e.cells)
	perm := rand.New(rand.NewSource(e.seed*1_000_003 + int64(b))).Perm(len(e.cells))
	return e.cells[perm[pos]]
}

// request is one timed order-k request.
type orderResult struct {
	first, kth time.Duration
	plans      int
	err        error
}

func (e *orderEnv) request(c *cell) orderResult {
	var r orderResult
	start := time.Now()
	o, err := experiment.BuildOrderer(c.d, c.measure, c.algo)
	if err != nil {
		r.err = err
		return r
	}
	keys := make([]string, 0, orderK)
	utils := make([]float64, 0, orderK)
	for len(keys) < orderK {
		p, u, ok := o.Next()
		if !ok {
			break
		}
		if len(keys) == 0 {
			r.first = time.Since(start)
		}
		keys, utils = append(keys, p.Key()), append(utils, u)
	}
	r.kth = time.Since(start)
	r.plans = len(keys)
	r.err = c.check(keys, utils)
	return r
}

// measureOrder is the untraced order-k run: one client, in-process.
func measureOrder(e *orderEnv, d time.Duration, ms *metricSet) (attempted, failed int, err error) {
	if err := resetPeakRSS(os.Getpid()); err != nil {
		return 0, 0, err
	}
	cpu0 := selfCPU()
	sampler := sampleRSS([]int{os.Getpid()})
	outs, wall := closedLoop(1, len(e.cells), minSamples(0.9), d, func(i int) orderResult {
		return e.request(e.at(i))
	})
	cpu := selfCPU() - cpu0
	rssP90, rssN, err := sampler.stop()
	if err != nil {
		return 0, 0, err
	}
	var first, kth []float64
	ok, plans := 0, 0
	inf := math.Inf(1)
	type cellTimes struct{ first, kth []float64 }
	byCell := map[*cell]*cellTimes{}
	for i, r := range outs {
		if r.err != nil {
			failed++
			reportFailure(r.err)
			first, kth = append(first, inf), append(kth, inf)
			continue
		}
		ok++
		plans += r.plans
		first = append(first, ms1(r.first))
		kth = append(kth, ms1(r.kth))
		c := e.at(i)
		if byCell[c] == nil {
			byCell[c] = &cellTimes{}
		}
		byCell[c].first = append(byCell[c].first, ms1(r.first))
		byCell[c].kth = append(byCell[c].kth, ms1(r.kth))
	}
	for _, c := range e.cells {
		if t := byCell[c]; t != nil {
			fmt.Printf("# %-32s %3d requests, median first plan %8.3f ms, k-th plan %8.3f ms\n",
				c.name(), len(t.kth), median(t.first), median(t.kth))
		}
	}
	n := len(outs)
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return n, failed, err
	}
	// A request's answer is its plan list: time to first answer is time
	// to the first plan, and full-k time is time to the k-th plan.
	ms.add("sessions_per_s", "1/s", float64(ok)/wall.Seconds(), n)
	ms.pct("ttfa_p50_ms", first, 0.5)
	ms.pct("ttfa_p90_ms", first, 0.9)
	ms.pct("full_k_p50_ms", kth, 0.5)
	ms.pct("full_k_p90_ms", kth, 0.9)
	ms.pct("first_plan_p50_ms", first, 0.5)
	ms.pct("kth_plan_p50_ms", kth, 0.5)
	ms.pct("kth_plan_p90_ms", kth, 0.9)
	ms.add("plans_per_s", "1/s", float64(plans)/wall.Seconds(), n)
	ms.add("failed_frac", "ratio", ratio(float64(failed), float64(n)), n)
	ms.add("cpu_ms_per_op", "ms", ms1(cpu)/float64(max(n, 1)), n)
	ms.add("rss_p90_mb", "MB", rssP90, rssN)
	ms.add("rss_peak_mb", "MB", rss, 1)
	return n, failed, nil
}

// cellStats accumulates one (algorithm, measure) pair's traced figures.
type cellStats struct {
	build, next       []time.Duration
	plans, evals      int
	allocs            uint64
	dom, refine, splt int64
	checks, hits      int64
}

// traceOrder is the traced order-k run: an untraced pass over whole
// blocks, then the same requests with spans around orderer construction
// and every Next, and the orderer's work counters bound to a registry.
func traceOrder(e *orderEnv, d time.Duration, rec *recorder, pl map[string]float64) (attempted, failed int) {
	blocks := 0
	t0 := time.Now()
	for blocks == 0 || time.Since(t0) < d/2 {
		for i := 0; i < len(e.cells); i++ {
			attempted++
			if r := e.request(e.at(blocks*len(e.cells) + i)); r.err != nil {
				failed++
				reportFailure(r.err)
			}
		}
		blocks++
	}
	plain := time.Since(t0)

	stats := map[string]*cellStats{}
	algoStats := map[experiment.Algorithm]*cellStats{}
	var storeNext []time.Duration
	st0 := e.st.Snapshot()
	rt0 := readRuntime()
	t0 = time.Now()
	for i := 0; i < blocks*len(e.cells); i++ {
		attempted++
		c := e.at(i)
		root := rec.start("request", 0, i)
		reg := obs.NewRegistry()
		a0 := heapAllocs()
		sp := rec.start("core.build", root, i)
		bt := time.Now()
		o, err := experiment.BuildOrderer(c.d, c.measure, c.algo)
		build := time.Since(bt)
		rec.end(sp)
		if err != nil {
			rec.end(root)
			failed++
			reportFailure(err)
			continue
		}
		// The counters' own registration is not the orderer's work.
		a1 := heapAllocs()
		core.Instrument(o, reg)
		a2 := heapAllocs()
		var keys []string
		var utils []float64
		var nexts []time.Duration
		for len(keys) < orderK {
			sp := rec.start("core.next", root, i)
			nt := time.Now()
			p, u, ok := o.Next()
			nexts = append(nexts, time.Since(nt))
			rec.end(sp)
			if !ok {
				break
			}
			keys, utils = append(keys, p.Key()), append(utils, u)
		}
		allocs := heapAllocs() - a0 - (a2 - a1)
		rec.end(root)
		if err := c.check(keys, utils); err != nil {
			failed++
			reportFailure(err)
			continue
		}
		if c.dom == "b40-store" {
			if c.algo == experiment.AlgoPI {
				storeNext = append(storeNext, nexts...)
			}
			continue
		}
		key := string(c.algo) + "." + string(c.measure)
		s := stats[key]
		if s == nil {
			s = &cellStats{}
			stats[key] = s
		}
		cs := reg.Snapshot().Counters
		pre := "core." + string(c.algo) + "."
		s.build = append(s.build, build)
		s.next = append(s.next, nexts...)
		s.plans += len(keys)
		s.evals += o.Context().Evals()
		s.allocs += allocs
		as := algoStats[c.algo]
		if as == nil {
			as = &cellStats{}
			algoStats[c.algo] = as
		}
		as.plans += len(keys)
		as.dom += cs[pre+"dominance_tests"]
		as.refine += cs[pre+"refinements"]
		as.splt += cs[pre+"splits"]
		as.checks += cs["measure."+string(c.algo)+".indep_checks"]
		as.hits += cs["measure."+string(c.algo)+".indep_hits"]
	}
	traced := time.Since(t0)
	rt1 := readRuntime()
	st1 := e.st.Snapshot()

	for key, s := range stats {
		pl["core.build_ms."+key] = median(msOf(s.build))
		pl["core.next_us."+key] = median(usOf(s.next))
		pl["measure.evals_per_plan."+key] = ratio(float64(s.evals), float64(s.plans))
		pl["core.mallocs_per_plan."+key] = ratio(float64(s.allocs), float64(s.plans))
	}
	for a, s := range algoStats {
		pl["core.dominance_tests_per_plan."+string(a)] = ratio(float64(s.dom), float64(s.plans))
		pl["core.refinements_per_plan."+string(a)] = ratio(float64(s.refine), float64(s.plans))
		pl["core.splits_per_plan."+string(a)] = ratio(float64(s.splt), float64(s.plans))
		pl["measure.indep_hit_ratio."+string(a)] = ratio(float64(s.hits), float64(s.checks))
	}
	hits, faults := float64(st1.PageHits-st0.PageHits), float64(st1.Faults-st0.Faults)
	pl["store.page_hit_ratio"] = ratio(hits, hits+faults)
	pl["store.next_us.pi.coverage"] = median(usOf(storeNext))
	pl["runtime.gc_cpu_frac"] = ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU)
	pl["trace.overhead_frac"] = ratio(float64(traced-plain), float64(plain))
	pl["trace.unaccounted_frac"] = rec.unaccountedFrac("request")
	var coreTime, reqTime time.Duration
	for _, s := range rec.spans {
		switch s.Name {
		case "core.build", "core.next":
			coreTime += s.dur()
		case "request":
			reqTime += s.dur()
		}
	}
	pl["core.share"] = ratio(float64(coreTime), float64(reqTime))
	return attempted, failed
}
