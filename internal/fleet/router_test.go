package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qporder/internal/lav"
	"qporder/internal/obs"
	"qporder/internal/schema"
	"qporder/internal/server"
)

// fleetCatalog is the movie catalog with three sources per bucket, so
// the fixture query has a 9-plan space — enough for a 3-way scatter to
// give every shard work.
func fleetCatalog(t testing.TB) *lav.Catalog {
	t.Helper()
	cat := lav.NewCatalog()
	stats := []lav.Stats{
		{Tuples: 50, TransmitCost: 1, Overhead: 10},
		{Tuples: 80, TransmitCost: 2, Overhead: 5},
		{Tuples: 30, TransmitCost: 1, Overhead: 20},
	}
	defs := []string{
		"V1(A, M) :- play-in(A, M), american(M)",
		"V2(A, M) :- play-in(A, M)",
		"V3(A, M) :- play-in(A, M)",
		"V4(R, M) :- review-of(R, M)",
		"V5(R, M) :- review-of(R, M)",
		"V6(R, M) :- review-of(R, M)",
	}
	for i, d := range defs {
		def := schema.MustParseQuery(d)
		cat.MustAdd(def.Name, def, stats[i%len(stats)])
	}
	return cat
}

const fleetQuery = "Q(M, R) :- play-in(A, M), review-of(R, M)"

// startShards boots n real qpserved cores on httptest listeners.
func startShards(t testing.TB, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		s, err := server.New(server.Config{Catalog: fleetCatalog(t), Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return urls
}

// startRouter builds a Router over the given shards with fast test
// timings and serves it on an httptest listener.
func startRouter(t testing.TB, shards []string, mutate func(*Config)) (*Router, string) {
	t.Helper()
	cfg := Config{
		Shards:         shards,
		HealthInterval: 50 * time.Millisecond,
		Backoff:        time.Millisecond,
		Registry:       obs.NewRegistry(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts.URL
}

// post sends a query request map and decodes the NDJSON stream.
func post(t *testing.T, url string, req map[string]any) (int, []server.Event) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []server.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e server.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, events
}

// planAndAnswerEvents strips a stream to its plan/answers subsequence —
// the part scatter-gather promises to reproduce byte-identically.
func planAndAnswerEvents(events []server.Event) []server.Event {
	var out []server.Event
	for _, e := range events {
		if e.Event == "plan" || e.Event == "answers" {
			e.TraceID = "" // session-scoped, not part of the contract
			out = append(out, e)
		}
	}
	return out
}

// TestProxyAffinity: a plain request through the router reaches exactly
// one shard and streams the same events a direct request would.
func TestProxyAffinity(t *testing.T) {
	shards := startShards(t, 3)
	rt, url := startRouter(t, shards, nil)
	status, events := post(t, url, map[string]any{"query": fleetQuery, "k": 10})
	if status != http.StatusOK {
		t.Fatalf("status %d: %+v", status, events)
	}
	if events[0].Event != "session" {
		t.Fatalf("first event %+v", events[0])
	}
	if last := events[len(events)-1]; last.Event != "done" {
		t.Fatalf("last event %+v", last)
	}
	if got := rt.proxied.Value(); got != 1 {
		t.Errorf("sessions_proxied = %d, want 1", got)
	}
	// The same query again must hit the same shard's session cache.
	_, events2 := post(t, url, map[string]any{"query": fleetQuery, "k": 10})
	if events2[0].Cache != "hit" {
		t.Errorf("second request cache = %q, want hit (affinity broken?)", events2[0].Cache)
	}
}

// TestProxyRetryFlakyShard: the ring owner refuses connections, so the
// router must mark it down, back off, and reroute to the next ring node
// with zero client-visible errors.
func TestProxyRetryFlakyShard(t *testing.T) {
	shards := startShards(t, 2)
	// A dead listener: reserve a port, then close it so connections fail.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	all := append([]string{deadURL}, shards...)
	// Hold back the prober's first probe: otherwise it can mark the dead
	// shard down before the request below, and the ring would route
	// around it without the retry this test is about.
	hold := make(chan struct{})
	holdFirstProbe = hold
	rt, url := startRouter(t, all, nil)
	holdFirstProbe = nil
	defer close(hold)

	// Find a query whose ring owner is the dead shard, so the proxy path
	// must actually retry (the ring starts optimistically all-up).
	ring := NewRing(all, 64)
	query := ""
	for i := 0; i < 200; i++ {
		q := fmt.Sprintf("Q%d(M, R) :- play-in(A, M), review-of(R, M)", i)
		if k, err := schema.ParseQuery(q); err == nil && ring.Lookup(k.CanonicalKey()) == deadURL {
			query = q
			break
		}
	}
	if query == "" {
		t.Fatal("no probe query maps to the dead shard")
	}
	status, events := post(t, url, map[string]any{"query": query, "k": 5})
	if status != http.StatusOK {
		t.Fatalf("status %d: %+v", status, events)
	}
	if last := events[len(events)-1]; last.Event != "done" {
		t.Fatalf("last event %+v, want done", last)
	}
	if got := rt.rerouted.Value(); got != 1 {
		t.Errorf("sessions_rerouted = %d, want 1", got)
	}
	if got := rt.retried.Value(); got < 1 {
		t.Errorf("retries = %d, want >= 1", got)
	}
	// The markDown must stick: the dead shard is out of the healthy set.
	for _, h := range rt.prober.healthy() {
		if h == deadURL {
			t.Errorf("dead shard %s still in healthy set", deadURL)
		}
	}
}

// TestProxyBackoffOn503: a shard that answers 503 a few times before
// recovering exercises the bounded-backoff retry loop without touching
// the ring (503 means draining/overloaded, not dead). With a single
// shard every successor walk lands on it again, so success proves the
// router waited out the backoff rather than failing fast.
func TestProxyBackoffOn503(t *testing.T) {
	var calls atomic.Int64
	real := startShards(t, 1)[0]
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		if calls.Add(1) <= 2 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"error":{"code":"overloaded","message":"try later"}}`)
			return
		}
		// Recovered: proxy to a real shard core.
		resp, err := http.Post(real+r.URL.Path, "application/json", r.Body)
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			fmt.Fprintln(w, sc.Text())
		}
	}))
	t.Cleanup(flaky.Close)

	rt, url := startRouter(t, []string{flaky.URL}, func(c *Config) { c.Retries = 3 })
	start := time.Now()
	status, events := post(t, url, map[string]any{"query": fleetQuery, "k": 3})
	if status != http.StatusOK {
		t.Fatalf("status %d: %+v", status, events)
	}
	if got := calls.Load(); got < 3 {
		t.Errorf("flaky shard saw %d query calls, want >= 3", got)
	}
	if got := rt.retried.Value(); got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
	// Two backoffs at 1ms base: >= 1ms + 2ms.
	if elapsed := time.Since(start); elapsed < 3*time.Millisecond {
		t.Errorf("request finished in %v, backoff not applied", elapsed)
	}
}

// TestProxyExhaustedRetries: when every attempt fails the client gets a
// structured 503, not a hung or empty response.
func TestProxyExhaustedRetries(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	rt, url := startRouter(t, []string{deadURL}, nil)
	status, events := post(t, url, map[string]any{"query": fleetQuery})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", status)
	}
	if len(events) != 1 || events[0].Err == nil || events[0].Err.Code != CodeFleetUnavailable {
		t.Fatalf("body %+v, want a %s error", events, CodeFleetUnavailable)
	}
	if got := rt.rejected.Value(); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
}

// TestDrainAwareness: a shard answering /healthz with 503 leaves the
// ring within a probe interval; requests route around it.
func TestDrainAwareness(t *testing.T) {
	real := startShards(t, 1)[0]
	var draining atomic.Bool
	drainer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			if draining.Load() {
				w.WriteHeader(http.StatusServiceUnavailable)
				return
			}
			w.WriteHeader(http.StatusOK)
			return
		}
		t.Errorf("drainer received %s %s after drain", r.Method, r.URL.Path)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	t.Cleanup(drainer.Close)

	rt, url := startRouter(t, []string{real, drainer.URL}, nil)
	draining.Store(true)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if h := rt.prober.healthy(); len(h) == 1 && h[0] == real {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drainer never left the healthy set: %v", rt.prober.healthy())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Every request now lands on the real shard, whatever its ring key.
	for i := 0; i < 5; i++ {
		q := fmt.Sprintf("Q%d(M, R) :- play-in(A, M), review-of(R, M)", i)
		status, events := post(t, url, map[string]any{"query": q, "k": 2})
		if status != http.StatusOK {
			t.Fatalf("status %d: %+v", status, events)
		}
	}
}

// TestScatterParity is the core fleet guarantee: the gathered stream's
// plan and answers events are identical to a single process executing
// the same request — for any shard count, because per-shard streams are
// disjoint restrictions of one global order.
func TestScatterParity(t *testing.T) {
	single, err := server.New(server.Config{Catalog: fleetCatalog(t), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	direct := httptest.NewServer(single.Handler())
	t.Cleanup(direct.Close)

	for _, k := range []int{3, 6, 9, 20} {
		req := map[string]any{"query": fleetQuery, "k": k, "algorithm": "pi", "measure": "chain"}
		status, want := post(t, direct.URL, req)
		if status != http.StatusOK {
			t.Fatalf("direct status %d", status)
		}
		wantPA := planAndAnswerEvents(want)
		for _, n := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("k%d_shards%d", k, n), func(t *testing.T) {
				shards := startShards(t, n)
				rt, url := startRouter(t, shards, nil)
				sreq := map[string]any{"query": fleetQuery, "k": k, "measure": "chain", "scatter": true}
				status, got := post(t, url, sreq)
				if status != http.StatusOK {
					t.Fatalf("scatter status %d: %+v", status, got)
				}
				if got[0].Event != "session" || got[0].Shards != n {
					t.Fatalf("session event %+v, want shards=%d", got[0], n)
				}
				last := got[len(got)-1]
				if last.Event != "done" {
					t.Fatalf("last event %+v, want done", last)
				}
				gotPA := planAndAnswerEvents(got)
				if len(gotPA) != len(wantPA) {
					t.Fatalf("gathered %d plan/answers events, direct has %d\ngot:  %+v\nwant: %+v",
						len(gotPA), len(wantPA), gotPA, wantPA)
				}
				for i := range wantPA {
					g, _ := json.Marshal(gotPA[i])
					w, _ := json.Marshal(wantPA[i])
					if !bytes.Equal(g, w) {
						t.Errorf("event %d differs:\ngot:  %s\nwant: %s", i, g, w)
					}
				}
				if got := rt.scatters.Value(); got != 1 {
					t.Errorf("sessions_scatter = %d, want 1", got)
				}
			})
		}
	}
}

// TestScatterRejectsNonPI: scatter is a PI contract; the router rejects
// other algorithms before touching any shard.
func TestScatterRejectsNonPI(t *testing.T) {
	shards := startShards(t, 2)
	_, url := startRouter(t, shards, nil)
	status, events := post(t, url, map[string]any{"query": fleetQuery, "scatter": true, "algorithm": "streamer"})
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", status)
	}
	if events[0].Err == nil || events[0].Err.Code != server.CodeInvalidShard {
		t.Fatalf("error %+v, want %s", events[0], server.CodeInvalidShard)
	}
}

// TestScatterRelaysShardRejection: a request the shards themselves
// reject (prefix-dependent measure) surfaces the shard's structured
// error through the router, not a generic fleet failure.
func TestScatterRelaysShardRejection(t *testing.T) {
	shards := startShards(t, 2)
	_, url := startRouter(t, shards, nil)
	status, events := post(t, url, map[string]any{
		"query": fleetQuery, "scatter": true, "measure": "chain-fail-caching",
	})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 relayed from shard: %+v", status, events)
	}
	if events[0].Err == nil || events[0].Err.Code != server.CodeInapplicable {
		t.Fatalf("error %+v, want relayed %s", events[0], server.CodeInapplicable)
	}
}

// TestClientShardFieldRejected: the shard assignment belongs to the
// router; clients presetting it get a 400.
func TestClientShardFieldRejected(t *testing.T) {
	shards := startShards(t, 1)
	_, url := startRouter(t, shards, nil)
	status, events := post(t, url, map[string]any{
		"query": fleetQuery, "shard": map[string]int{"index": 0, "count": 2},
	})
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %+v", status, events)
	}
}

// TestTraceparentForwarded: the client's traceparent reaches the shard,
// so the whole fleet hop joins one W3C trace.
func TestTraceparentForwarded(t *testing.T) {
	var seen atomic.Value
	real := startShards(t, 1)[0]
	spy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/query" {
			seen.Store(r.Header.Get("Traceparent"))
		}
		resp, err := http.Post(real+r.URL.Path, "application/json", r.Body)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			fmt.Fprintln(w, sc.Text())
		}
	}))
	t.Cleanup(spy.Close)

	_, url := startRouter(t, []string{spy.URL}, nil)
	const tp = "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"
	body, _ := json.Marshal(map[string]any{"query": fleetQuery, "k": 2})
	req, _ := http.NewRequest(http.MethodPost, url+"/v1/query", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Traceparent", tp)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got, _ := seen.Load().(string); got != tp {
		t.Errorf("shard saw traceparent %q, want %q", got, tp)
	}
}

// TestRouterHealthz: the router's own health surface reports the fleet
// view and flips to 503 on drain.
func TestRouterHealthz(t *testing.T) {
	shards := startShards(t, 2)
	rt, url := startRouter(t, shards, nil)
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hb struct {
		Status   string `json:"status"`
		ShardsUp int    `json:"shards_up"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hb.Status != "ok" || hb.ShardsUp != 2 {
		t.Fatalf("healthz %d %+v, want 200 ok with 2 shards", resp.StatusCode, hb)
	}
	rt.SetDraining(true)
	resp, err = http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz %d, want 503", resp.StatusCode)
	}
}

// TestRouterMetrics: the fleet instruments come out of all three
// exposition formats and pass the OpenMetrics name constraints.
func TestRouterMetrics(t *testing.T) {
	shards := startShards(t, 2)
	_, url := startRouter(t, shards, nil)
	_, _ = post(t, url, map[string]any{"query": fleetQuery, "k": 2})

	for _, tc := range []struct{ format, want string }{
		{"", "fleet.sessions_proxied"},
		{"?format=json", "fleet.sessions_proxied"},
		{"?format=openmetrics", "fleet_sessions_proxied"},
	} {
		resp, err := http.Get(url + "/metrics" + tc.format)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if !strings.Contains(buf.String(), tc.want) {
			t.Errorf("format %q exposition missing %q:\n%s", tc.format, tc.want, buf.String())
		}
	}
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"fleet.shards_up", "fleet.shard0.inflight", "fleet.shard1.inflight"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("text exposition missing %q", want)
		}
	}
}
