package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"qporder/internal/fleet"
	"qporder/internal/mediator"
	"qporder/internal/reformulate"
	"qporder/internal/schema"
)

// The HTTP workloads run over qpgen's chain domain: query length 3, 12
// sources per subgoal. The domain and the simulated world are fixed;
// --seed draws the session stream.
const (
	chainLen     = 3
	chainSources = 12
	domainSeed   = 7
	worldSeed    = 1
	sessionK     = 5
	httpClients  = 2
	// worldConsts is the simulated world's constant count (c0..c14).
	worldConsts = 10
	// cacheCapacity is qpserved's default session-cache size.
	cacheCapacity = 128
)

// httpSession is one planned session: the request and the key of its
// reference stream.
type httpSession struct {
	Req request
	Ref string
}

// prepared is one reformulated query: the Prepared value a daemon's
// session cache holds and the plan domain behind it, which the replay
// uses for the soundness test and plan rendering.
type prepared struct {
	Prep *mediator.Prepared
	PD   *reformulate.PlanDomain
}

func prepare(q *schema.Query, w *world) (*prepared, error) {
	prep, err := mediator.Prepare(q, w.cat, mediator.Buckets)
	if err != nil {
		return nil, err
	}
	b, err := reformulate.BuildBuckets(q, w.cat)
	if err != nil {
		return nil, err
	}
	return &prepared{Prep: prep, PD: reformulate.NewPlanDomain(b, w.cat)}, nil
}

// httpEnv is a set-up HTTP workload: live daemons, the world they
// serve, the reference streams, and the session stream.
type httpEnv struct {
	name    string
	seed    int64
	w       *world
	daemons []*daemon
	shards  []*daemon
	entry   string // URL the clients send to
	refs    map[string]stream
	preps   map[string]*prepared // by canonical key
	mixes   map[string]mix       // by reference key
	block   int
	at      func(i int) httpSession
	family  int         // distinct canonical queries in the stream
	ring    *fleet.Ring // the router's ring with every shard healthy
}

func (e *httpEnv) close() { stopAll(e.daemons) }

// serveMixes is serve-join's (algorithm, measure) mix, led by the
// server default streamer/chain; one block holds each entry once.
var serveMixes = []mix{
	{"streamer", "chain"}, {"streamer", "chain"}, {"streamer", "chain"},
	{"idrips", "chain-fail"}, {"pi", "monetary"}, {"greedy", "linear"},
}

// Fleet-mix sessions: streamer/chain through the affinity route, and
// every fifth query of the family a scatter PI session over the
// prefix-independent chain measure.
var (
	fleetProxy   = mix{"streamer", "chain"}
	fleetScatter = mix{"pi", "chain"}
)

const scatterEvery = 5

func refKey(canon string, m mix, scatter bool) string {
	return fmt.Sprintf("%s|%s|%v", canon, m, scatter)
}

// setupHTTP builds one HTTP workload from scratch: domain file,
// daemons, world, reference streams and warm-up.
func setupHTTP(name, binDir, work string, seed int64) (*httpEnv, error) {
	text, err := chainDomainText(chainLen, chainSources, domainSeed)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(work, "chain.qp")
	cat, err := writeDomain(path, text)
	if err != nil {
		return nil, err
	}
	env := &httpEnv{name: name, seed: seed, refs: map[string]stream{},
		preps: map[string]*prepared{}, mixes: map[string]mix{}}
	nShards := 1
	if name == "fleet-mix" {
		nShards = 2
	}
	for i := 0; i < nShards; i++ {
		d, err := startDaemon(binDir, "qpserved", "-f", path, "-seed", strconv.Itoa(worldSeed))
		if err != nil {
			env.close()
			return nil, err
		}
		env.daemons = append(env.daemons, d)
		env.shards = append(env.shards, d)
	}
	env.entry = env.shards[0].URL
	if nShards > 1 {
		urls := make([]string, nShards)
		for i, d := range env.shards {
			urls[i] = d.URL
		}
		r, err := startDaemon(binDir, "qprouter", "-shards", strings.Join(urls, ","))
		if err != nil {
			env.close()
			return nil, err
		}
		env.daemons = append(env.daemons, r)
		env.entry = r.URL
		env.ring = fleet.NewRing(urls, 64)
	}
	env.w = &world{cat: cat, db: worldDB(cat, worldSeed), seed: worldSeed}
	if name == "fleet-mix" {
		err = env.planFleet()
	} else {
		err = env.planServe()
	}
	if err == nil {
		err = env.warmUp()
	}
	if err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

// planServe computes serve-join's references and session stream. Every
// session sends the 3-atom chain query with its atoms reordered and its
// variables renamed; set-up warms the session cache with the generated
// atom order, so every measured session hits it and runs that order.
func (e *httpEnv) planServe() error {
	q := chainQuery(chainLen)
	p, err := prepare(q, e.w)
	if err != nil {
		return err
	}
	canon := canonicalKey(q)
	e.preps[canon] = p
	for _, m := range serveMixes {
		key := refKey(canon, m, false)
		if _, ok := e.refs[key]; ok {
			continue
		}
		s, err := referenceStream(e.w, p.Prep, m, sessionK, 0, 0)
		if err != nil {
			return fmt.Errorf("reference %s: %w", m, err)
		}
		e.refs[key], e.mixes[key] = s, m
	}
	orders := permutations(chainLen)
	e.block = len(serveMixes)
	e.family = 1
	seed := e.seed
	e.at = func(i int) httpSession {
		b, pos := i/e.block, i%e.block
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(b)))
		mixPerm := rng.Perm(len(serveMixes))
		orderPerm := rng.Perm(len(orders))
		var suffix int64
		for j := 0; j <= pos; j++ {
			suffix = rng.Int63n(1 << 30)
		}
		m := serveMixes[mixPerm[pos]]
		text := shuffledVariant(q, orders[orderPerm[pos%len(orders)]], fmt.Sprintf("_%d", suffix))
		return httpSession{
			Req: request{Query: text, K: sessionK, Algorithm: m.Algo, Measure: m.Measure},
			Ref: refKey(canon, m, false),
		}
	}
	return nil
}

// planFleet computes fleet-mix's query family, references and session
// stream: each pass over the family is a fresh seeded permutation.
func (e *httpEnv) planFleet() error {
	type member struct {
		text, canon string
		m           mix
		scatter     bool
	}
	var fam []member
	for j, text := range subChainQueries(chainLen, worldConsts) {
		q, err := schema.ParseQuery(text)
		if err != nil {
			return err
		}
		p, err := prepare(q, e.w)
		if err != nil {
			return fmt.Errorf("prepare %s: %w", text, err)
		}
		canon := canonicalKey(q)
		m, scatter := fleetProxy, j%scatterEvery == scatterEvery-1
		if scatter {
			m = fleetScatter
		}
		s, err := referenceStream(e.w, p.Prep, m, sessionK, 0, 0)
		if err != nil {
			return fmt.Errorf("reference %s: %w", text, err)
		}
		// Every query in the stream must return answers, so every
		// session has a time to first answer.
		if s.Answers == 0 {
			continue
		}
		key := refKey(canon, m, scatter)
		e.preps[canon] = p
		e.refs[key], e.mixes[key] = s, m
		if scatter {
			for sh := 0; sh < len(e.shards); sh++ {
				part, err := referenceStream(e.w, p.Prep, m, sessionK, sh, len(e.shards))
				if err != nil {
					return err
				}
				e.refs[sliceKey(key, sh)] = part
			}
		}
		fam = append(fam, member{text, canon, m, scatter})
	}
	e.block = len(fam)
	e.family = len(fam)
	var mu sync.Mutex
	perms := map[int][]int{}
	seed := e.seed
	e.at = func(i int) httpSession {
		pass, pos := i/len(fam), i%len(fam)
		mu.Lock()
		perm, ok := perms[pass]
		if !ok {
			perm = rand.New(rand.NewSource(seed*1_000_003 + int64(pass))).Perm(len(fam))
			perms[pass] = perm
		}
		mu.Unlock()
		f := fam[perm[pos]]
		return httpSession{
			Req: request{Query: f.text, K: sessionK, Algorithm: f.m.Algo, Measure: f.m.Measure, Scatter: f.scatter},
			Ref: refKey(f.canon, f.m, f.scatter),
		}
	}
	return nil
}

func sliceKey(ref string, shard int) string { return fmt.Sprintf("%s|slice%d", ref, shard) }

// warmUp sends set-up sessions and checks them. For serve-join these
// are the generated atom order once per mix, which fills the session
// cache; for fleet-mix one proxy and one scatter session warm the
// router's connections.
func (e *httpEnv) warmUp() error {
	c := newClient()
	defer c.CloseIdleConnections()
	var warm []httpSession
	if e.name == "serve-join" {
		q := chainQuery(chainLen)
		canon := canonicalKey(q)
		seen := map[mix]bool{}
		for _, m := range serveMixes {
			if seen[m] {
				continue
			}
			seen[m] = true
			warm = append(warm, httpSession{
				Req: request{Query: q.String(), K: sessionK, Algorithm: m.Algo, Measure: m.Measure},
				Ref: refKey(canon, m, false)})
		}
	} else {
		for i := 0; i < e.block && len(warm) < 2; i++ {
			s := e.at(i)
			if len(warm) == 0 || s.Req.Scatter != warm[0].Req.Scatter {
				warm = append(warm, s)
			}
		}
	}
	for _, s := range warm {
		o := e.run(c, e.entry, s)
		if o.Err != nil {
			return fmt.Errorf("warm-up %q: %w", s.Req.Query, o.Err)
		}
	}
	return nil
}

// run sends one session and checks it against its reference.
func (e *httpEnv) run(c *http.Client, url string, s httpSession) outcome {
	o := session(c, url, s.Req)
	if o.Err == nil {
		if err := checkExact(o.Stream, e.refs[s.Ref]); err != nil {
			o.Err = fmt.Errorf("plan-stream mismatch for %q (%s): %w", s.Req.Query, e.mixes[s.Ref], err)
		}
	}
	return o
}

// daemonCPU sums the daemons' CPU time.
func (e *httpEnv) daemonCPU() (time.Duration, error) {
	var t time.Duration
	for _, d := range e.daemons {
		c, err := procCPU(d.pid())
		if err != nil {
			return 0, err
		}
		t += c
	}
	return t, nil
}

// daemonRSS sums the daemons' peak resident set sizes.
func (e *httpEnv) daemonRSS() (float64, error) {
	var mb float64
	for _, d := range e.daemons {
		v, err := peakRSSMB(d.pid())
		if err != nil {
			return 0, err
		}
		mb += v
	}
	return mb, nil
}

// measureHTTP is the untraced run: closed loop with httpClients clients
// for the measuring time, every session checked.
func measureHTTP(e *httpEnv, d time.Duration, ms *metricSet) (attempted, failed int, err error) {
	c := newClient()
	defer c.CloseIdleConnections()
	pids := make([]int, len(e.daemons))
	for i, dm := range e.daemons {
		pids[i] = dm.pid()
		if err := resetPeakRSS(pids[i]); err != nil {
			return 0, 0, err
		}
	}
	cpu0, err := e.daemonCPU()
	if err != nil {
		return 0, 0, err
	}
	sampler := sampleRSS(pids)
	outs, wall := closedLoop(httpClients, e.block, minSamples(0.9), d, func(i int) outcome {
		return e.run(c, e.entry, e.at(i))
	})
	rssP90, rssN, err := sampler.stop()
	if err != nil {
		return 0, 0, err
	}
	cpu1, err := e.daemonCPU()
	if err != nil {
		return 0, 0, err
	}
	rss, err := e.daemonRSS()
	if err != nil {
		return 0, 0, err
	}
	var ttfa, full, first, kth []float64
	ok, plans := 0, 0
	inf := math.Inf(1)
	byMix := map[string][]float64{}
	for i, o := range outs {
		if o.Err != nil {
			failed++
			reportFailure(o.Err)
			ttfa, full, first, kth = append(ttfa, inf), append(full, inf), append(first, inf), append(kth, inf)
			continue
		}
		ok++
		plans += len(o.Stream.Keys)
		ttfa = append(ttfa, ms1(o.TTFA))
		full = append(full, ms1(o.Done))
		first = append(first, ms1(o.FirstPlan))
		kth = append(kth, ms1(o.KthPlan))
		s := e.at(i)
		name := e.mixes[s.Ref].String()
		if s.Req.Scatter {
			name += "/scatter"
		}
		byMix[name] = append(byMix[name], ms1(o.Done))
	}
	names := make([]string, 0, len(byMix))
	for name := range byMix {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("# %-24s %5d sessions, median full-k %8.3f ms\n", name, len(byMix[name]), median(byMix[name]))
	}
	n := len(outs)
	ms.add("sessions_per_s", "1/s", float64(ok)/wall.Seconds(), n)
	ms.pct("ttfa_p50_ms", ttfa, 0.5)
	ms.pct("ttfa_p90_ms", ttfa, 0.9)
	ms.pct("full_k_p50_ms", full, 0.5)
	ms.pct("full_k_p90_ms", full, 0.9)
	ms.pct("first_plan_p50_ms", first, 0.5)
	ms.pct("kth_plan_p50_ms", kth, 0.5)
	ms.pct("kth_plan_p90_ms", kth, 0.9)
	ms.add("plans_per_s", "1/s", float64(plans)/wall.Seconds(), n)
	ms.add("failed_frac", "ratio", ratio(float64(failed), float64(n)), n)
	ms.add("cpu_ms_per_op", "ms", ms1(cpu1-cpu0)/float64(max(n, 1)), n)
	ms.add("rss_p90_mb", "MB", rssP90, rssN)
	ms.add("rss_peak_mb", "MB", rss, len(e.daemons))
	return n, failed, nil
}

func ms1(d time.Duration) float64 { return float64(d) / 1e6 }

// counters reads a daemon's registry counters from GET /metrics?format=json.
func counters(c *http.Client, url string) (map[string]int64, error) {
	resp, err := c.Get(url + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("metrics of %s: %w", url, err)
	}
	return snap.Counters, nil
}

// shardOf returns the shard URL the router's consistent-hash ring
// assigns a query to when every shard is healthy.
func (e *httpEnv) shardOf(query string) (string, error) {
	q, err := schema.ParseQuery(query)
	if err != nil {
		return "", err
	}
	return e.ring.Lookup(q.CanonicalKey()), nil
}
