package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
	c.Reset()
	if got := c.Value(); got != 0 {
		t.Fatalf("after Reset, Value = %d, want 0", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(2.5)
	g.Add(1.5)
	if got := g.Value(); got != 4 {
		t.Fatalf("Value = %g, want 4", got)
	}
	g.Reset()
	if got := g.Value(); got != 0 {
		t.Fatalf("after Reset, Value = %g, want 0", got)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 2, 3, 100, 0} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 || s.Sum != 106 {
		t.Fatalf("Count=%d Sum=%d, want 5/106", s.Count, s.Sum)
	}
	if s.Min != 0 || s.Max != 100 {
		t.Fatalf("Min=%d Max=%d, want 0/100", s.Min, s.Max)
	}
	if want := 106.0 / 5; s.Mean != want {
		t.Fatalf("Mean=%g, want %g", s.Mean, want)
	}
	var total int64
	for _, b := range s.Buckets {
		if b.Lo > b.Hi {
			t.Fatalf("bucket %+v has Lo > Hi", b)
		}
		total += b.Count
	}
	if total != s.Count {
		t.Fatalf("bucket counts sum to %d, want %d", total, s.Count)
	}
	h.ObserveDuration(3 * time.Millisecond)
	h.ObserveSince(time.Now().Add(-time.Millisecond))
	if got := h.Snapshot().Count; got != 7 {
		t.Fatalf("Count after duration observations = %d, want 7", got)
	}
	h.Reset()
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 || len(s.Buckets) != 0 {
		t.Fatalf("after Reset, snapshot = %+v, want zero", s)
	}
}

func TestBucketIndexBounds(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3},
		{math.MaxInt64, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

// TestSpanAggregatesMinMax: per-phase aggregates live in the phase's
// histogram, and ObservePhase feeds it and the trace span from one
// clock read, so both views agree exactly.
func TestSpanAggregatesMinMax(t *testing.T) {
	tr := NewTrace("req")
	h := &Histogram{}
	var total time.Duration
	for i := 0; i < 3; i++ {
		start := time.Now()
		time.Sleep(time.Duration(i) * time.Millisecond)
		total += tr.ObservePhase("work", start, h)
	}
	st := h.Snapshot()
	if st.Count != 3 || st.Min > st.Max || st.Sum < st.Max {
		t.Fatalf("aggregate inconsistent: %+v", st)
	}
	var spanSum int64
	for _, sp := range tr.Snapshot().Spans {
		if sp.Name == "work" {
			spanSum += sp.DurNS
		}
	}
	if spanSum != st.Sum || st.Sum != int64(total) {
		t.Fatalf("span sum %d, histogram sum %d, returned sum %d: want equal", spanSum, st.Sum, total)
	}
	// A nil trace still feeds the histogram.
	(*Trace)(nil).ObservePhase("work", time.Now(), h)
	if got := h.Snapshot().Count; got != 4 {
		t.Fatalf("count after nil-trace phase = %d, want 4", got)
	}
}

func TestRegistrySharingAndSnapshot(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("same-name counters are distinct")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("same-name gauges are distinct")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("same-name histograms are distinct")
	}
	r.Counter("x").Add(7)
	r.Gauge("g").Set(1.25)
	r.Histogram("h").Observe(9)

	s := r.Snapshot()
	if s.Counters["x"] != 7 || s.Gauges["g"] != 1.25 || s.Histograms["h"].Count != 1 {
		t.Fatalf("snapshot wrong: %+v", s)
	}

	r.Reset()
	if r.Counter("x").Value() != 0 || r.Gauge("g").Value() != 0 {
		t.Fatal("Reset did not zero instruments")
	}
	if got := r.Histogram("h").Snapshot().Count; got != 0 {
		t.Fatalf("Reset left histogram count %d", got)
	}
}

func TestRegistryRenderings(t *testing.T) {
	r := NewRegistry()
	r.Counter("core.streamer.dominance_tests").Add(3)
	r.Gauge("mediator.time_to_first_answer_ns").Set(1500)
	r.Histogram("core.streamer.next_ns").Observe(2048)
	r.Histogram("mediator.execute_ns").Observe(4096)

	var jsonBuf bytes.Buffer
	if err := r.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(jsonBuf.Bytes(), &snap); err != nil {
		t.Fatalf("WriteJSON output is not valid JSON: %v", err)
	}
	if snap.Counters["core.streamer.dominance_tests"] != 3 {
		t.Fatalf("JSON round-trip lost counter: %+v", snap)
	}

	if h := snap.Histograms["mediator.execute_ns"]; h.Count != 1 || h.Sum != 4096 || h.Min != 4096 || h.Max != 4096 {
		t.Fatalf("JSON round-trip lost phase aggregate: %+v", h)
	}

	var text bytes.Buffer
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"counters:", "core.streamer.dominance_tests", "gauges:",
		"histograms:", "mediator.execute_ns", "count=1 sum=4.096µs",
	} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("WriteText output missing %q:\n%s", want, text.String())
		}
	}

	// OpenMetrics carries the same per-phase count, sum, min and max.
	var om bytes.Buffer
	if err := r.WriteOpenMetrics(&om); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`mediator_execute_ns{quantile="0"} 4096`, `mediator_execute_ns{quantile="1"} 4096`,
		"mediator_execute_ns_sum 4096", "mediator_execute_ns_count 1",
	} {
		if !strings.Contains(om.String(), want) {
			t.Fatalf("WriteOpenMetrics output missing %q:\n%s", want, om.String())
		}
	}
}

// TestNilSafety calls every public method on nil receivers; any panic
// fails the test. Disabled instrumentation relies on this.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(3)
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("nil Counter value not 0")
	}

	var g *Gauge
	g.Set(1)
	g.Add(1)
	g.Reset()
	if g.Value() != 0 {
		t.Fatal("nil Gauge value not 0")
	}

	var h *Histogram
	h.Observe(1)
	h.ObserveDuration(time.Second)
	h.ObserveSince(time.Now())
	h.Reset()
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatal("nil Histogram snapshot not zero")
	}

	var tr *Trace
	tr.Event("a", "b")
	if d := tr.ObservePhase("x", time.Now(), h); d < 0 {
		t.Fatal("nil Trace ObservePhase returned a negative duration")
	}
	sp := tr.StartSpan("x")
	if sp != nil {
		t.Fatal("StartSpan on nil trace returned non-nil span")
	}
	sp.Annotate("m")
	if sp.End() != 0 {
		t.Fatal("nil TraceSpan End not 0")
	}
	if sp.StartSpan("child") != nil {
		t.Fatal("nil TraceSpan StartSpan returned non-nil")
	}

	var r *Registry
	if r.Counter("c") != nil || r.Gauge("g") != nil || r.Histogram("h") != nil {
		t.Fatal("nil Registry handed out non-nil instruments")
	}
	r.Reset()
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Fatal("nil Registry snapshot not zero")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentRegistry hammers one registry from many goroutines while
// snapshotting; run with -race (CI does) to verify concurrency safety.
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			h := r.Histogram("lat")
			g := r.Gauge("g")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(int64(i % 100))
				g.Add(1)
				if i%500 == 0 {
					_ = r.Snapshot()
					_ = r.WriteText(io.Discard)
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("lat").Snapshot().Count; got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("g").Value(); got != workers*perWorker {
		t.Fatalf("gauge = %g, want %d", got, workers*perWorker)
	}
}

// TestDisabledPathAllocs proves the disabled path — a nil registry's
// instruments and a nil trace — allocates nothing on the hot path.
func TestDisabledPathAllocs(t *testing.T) {
	var r *Registry
	var tr *Trace
	allocs := testing.AllocsPerRun(1000, func() {
		r.Counter("c").Inc()
		r.Histogram("h").Observe(5)
		tr.ObservePhase("x", time.Now(), r.Histogram("phase"))
		tr.StartSpan("x").End()
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %.1f per op, want 0", allocs)
	}
}
