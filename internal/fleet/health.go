package fleet

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"time"
)

// shardState is one shard's health record inside the router.
type shardState struct {
	url  string
	up   bool
	slow int // consecutive probe timeouts (not definitive failures)
}

// prober polls every configured shard's /healthz and maintains the
// router's view of the fleet: the set of healthy shards and the ring
// built over them. A draining qpserved answers /healthz with 503, so a
// SIGTERM'd shard leaves the ring within one probe interval while its
// in-flight streams finish — the router stops routing new sessions to it
// before the daemon's listener closes. A shard that stops answering
// (killed, partitioned) is treated the same way.
//
// The prober is also told about failures the probe loop hasn't seen yet:
// the proxy path calls markDown on a connection error so the next
// session reroutes immediately instead of waiting out the interval.
type prober struct {
	client   *http.Client
	interval time.Duration
	timeout  time.Duration // per-probe deadline, decoupled from interval
	replicas int           // vnodes per shard for ring rebuilds

	mu     sync.Mutex
	shards []*shardState
	ring   *Ring
	onFlip func(url string, up bool) // called under mu; must not block

	stop chan struct{}
	done chan struct{}
	// hold, when non-nil, delays the first probe until it is closed
	// (see holdFirstProbe).
	hold chan struct{}
}

// holdFirstProbe is a test hook: a prober built while it is non-nil
// waits for it to close before its first probe, so a test can exercise
// the optimistic all-up starting ring deterministically. Production
// code never sets it.
var holdFirstProbe chan struct{}

// newProber builds the prober over the configured shard URLs; every
// shard starts up (optimistically — the first probe runs immediately and
// corrects the view before meaningful traffic in practice, and the proxy
// path handles a dead shard with an instant markDown anyway).
func newProber(urls []string, replicas int, client *http.Client, interval, timeout time.Duration, onFlip func(string, bool)) *prober {
	p := &prober{
		client:   client,
		interval: interval,
		timeout:  timeout,
		onFlip:   onFlip,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		hold:     holdFirstProbe,
	}
	for _, u := range urls {
		p.shards = append(p.shards, &shardState{url: u, up: true})
	}
	p.replicas = replicas
	p.rebuild()
	return p
}

// run is the probe loop; call in a goroutine, stop with close().
func (p *prober) run() {
	defer close(p.done)
	if p.hold != nil {
		select {
		case <-p.hold:
		case <-p.stop:
			return
		}
	}
	p.probeAll()
	t := time.NewTicker(p.interval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.probeAll()
		}
	}
}

// close stops the probe loop and waits for it to quiesce.
func (p *prober) close() {
	close(p.stop)
	<-p.done
}

// probeAll checks every shard once, concurrently.
func (p *prober) probeAll() {
	p.mu.Lock()
	urls := make([]string, len(p.shards))
	for i, s := range p.shards {
		urls[i] = s.url
	}
	p.mu.Unlock()
	var wg sync.WaitGroup
	ups := make([]bool, len(urls))
	defs := make([]bool, len(urls))
	for i, u := range urls {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			ups[i], defs[i] = p.probe(u)
		}(i, u)
	}
	wg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	changed := false
	for i, s := range p.shards {
		newUp := s.up
		switch {
		case ups[i]:
			s.slow = 0
			newUp = true
		case defs[i]:
			// A real answer (503 draining) or a refused connection is
			// definitive: flip immediately.
			s.slow = 0
			newUp = false
		default:
			// A timed-out probe is ambiguous — a shard saturated with
			// ordering work answers slowly without being gone. Require
			// two consecutive timeouts before taking it off the ring.
			s.slow++
			if s.slow >= 2 {
				newUp = false
			}
		}
		if s.up != newUp {
			s.up = newUp
			changed = true
			if p.onFlip != nil {
				p.onFlip(s.url, s.up)
			}
		}
	}
	if changed {
		p.rebuild()
	}
}

// probe checks one shard's /healthz. up reports a 200 answer;
// definitive reports whether the result is trustworthy (any HTTP
// response, or a hard connection error — as opposed to a timeout).
func (p *prober) probe(url string) (up, definitive bool) {
	ctx, cancel := context.WithTimeout(context.Background(), p.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return false, true
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return false, !errors.Is(err, context.DeadlineExceeded)
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK, true
}

// markDown records an observed failure (connection refused on a proxy
// attempt) without waiting for the next probe tick. The next probe can
// revive the shard.
func (p *prober) markDown(url string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.shards {
		if s.url == url && s.up {
			s.up = false
			if p.onFlip != nil {
				p.onFlip(s.url, false)
			}
			p.rebuild()
			return
		}
	}
}

// all returns every configured shard URL regardless of health, the
// last-resort candidate set when the health view is empty.
func (p *prober) all() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, len(p.shards))
	for i, s := range p.shards {
		out[i] = s.url
	}
	return out
}

// healthy returns the healthy shard URLs in configured order.
func (p *prober) healthy() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.shards))
	for _, s := range p.shards {
		if s.up {
			out = append(out, s.url)
		}
	}
	return out
}

// view returns the current ring plus the up count.
func (p *prober) view() (*Ring, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, s := range p.shards {
		if s.up {
			n++
		}
	}
	return p.ring, n
}

// states returns a url -> up snapshot for /healthz rendering.
func (p *prober) states() map[string]bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]bool, len(p.shards))
	for _, s := range p.shards {
		out[s.url] = s.up
	}
	return out
}

// rebuild recomputes the ring from the healthy set. Caller holds mu.
func (p *prober) rebuild() {
	up := make([]string, 0, len(p.shards))
	for _, s := range p.shards {
		if s.up {
			up = append(up, s.url)
		}
	}
	p.ring = NewRing(up, p.replicas)
}
