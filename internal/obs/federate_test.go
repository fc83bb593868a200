package obs

import (
	"bytes"
	"strings"
	"testing"
)

// buildExposition renders a populated registry the way a shard would.
func buildExposition(t *testing.T) string {
	t.Helper()
	r := NewRegistry()
	r.Counter("server.requests").Add(42)
	r.Gauge("server.inflight").Set(3.5)
	for i := int64(1); i <= 100; i++ {
		r.Histogram("server.latency_ns").Observe(i * 1000)
	}
	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestParseOpenMetricsRoundTrip(t *testing.T) {
	out := buildExposition(t)
	fams, err := ParseOpenMetrics(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]OMFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	if f := byName["server_requests"]; f.Type != "counter" || len(f.Samples) != 1 ||
		f.Samples[0].Suffix != "_total" || f.Samples[0].Value != "42" {
		t.Fatalf("server_requests = %+v", f)
	}
	if f := byName["server_inflight"]; f.Type != "gauge" || f.Samples[0].Value != "3.5" {
		t.Fatalf("server_inflight = %+v", f)
	}
	lat := byName["server_latency_ns"]
	if lat.Type != "summary" {
		t.Fatalf("latency type = %q", lat.Type)
	}
	var quantiles []string
	for _, s := range lat.Samples {
		if strings.Contains(s.Labels, "quantile=") {
			quantiles = append(quantiles, s.Labels)
		}
	}
	// min, p50, p95, p99, p99.9, max
	want := `quantile="0" quantile="0.5" quantile="0.95" quantile="0.99" quantile="0.999" quantile="1"`
	if got := strings.Join(quantiles, " "); got != want {
		t.Fatalf("latency quantile samples = %s, want %s", got, want)
	}
}

func TestParseOpenMetricsErrors(t *testing.T) {
	for name, in := range map[string]string{
		"no EOF":             "# TYPE a counter\na_total 1\n",
		"content after EOF":  "# EOF\na_total 1\n",
		"sample before TYPE": "a_total 1\n# EOF\n",
		"foreign sample":     "# TYPE a counter\nb_total 1\n# EOF\n",
		"missing value":      "# TYPE a counter\na_total\n# EOF\n",
		"unterminated block": "# TYPE a counter\na_total{x=\"y 1\n# EOF\n",
	} {
		if _, err := ParseOpenMetrics(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

func TestParseOpenMetricsEscapedLabels(t *testing.T) {
	// A label value containing an escaped quote, a backslash, and a
	// literal '}' must not end the block early.
	in := "# TYPE a gauge\na{plan=\"p \\\"q\\\" \\\\ }x\",other=\"y\"} 7\n# EOF\n"
	fams, err := ParseOpenMetrics(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 1 || len(fams[0].Samples) != 1 {
		t.Fatalf("fams = %+v", fams)
	}
	s := fams[0].Samples[0]
	if s.Value != "7" {
		t.Fatalf("value = %q, want 7", s.Value)
	}
	if !strings.Contains(s.Labels, `}x`) || !strings.Contains(s.Labels, `other="y"`) {
		t.Fatalf("labels mangled: %q", s.Labels)
	}
}

func TestWriteMergedOpenMetrics(t *testing.T) {
	shard := buildExposition(t)
	shardFams, err := ParseOpenMetrics(strings.NewReader(shard))
	if err != nil {
		t.Fatal(err)
	}
	local := NewRegistry()
	local.Counter("fleet.sessions_proxied").Add(9)
	var own bytes.Buffer
	if err := local.WriteOpenMetrics(&own); err != nil {
		t.Fatal(err)
	}
	localFams, err := ParseOpenMetrics(&own)
	if err != nil {
		t.Fatal(err)
	}

	var merged bytes.Buffer
	dropped, err := WriteMergedOpenMetrics(&merged, []LabeledExposition{
		{Families: localFams}, // the federating process: unlabeled
		{Families: shardFams, Label: [2]string{"shard", "0"}},
		{Families: shardFams, Label: [2]string{"shard", "1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("dropped = %d, want 0", dropped)
	}
	out := merged.String()
	// The merged exposition must itself satisfy the grammar validator.
	families, samples := validateOpenMetrics(t, out)
	if samples == 0 {
		t.Fatal("no samples in merged exposition")
	}
	if families["fleet_sessions_proxied"] != "counter" {
		t.Fatal("local family missing from merge")
	}
	if !strings.Contains(out, `server_requests_total{shard="0"} 42`) ||
		!strings.Contains(out, `server_requests_total{shard="1"} 42`) {
		t.Fatalf("per-shard samples missing:\n%s", out)
	}
	if strings.Contains(out, "fleet_sessions_proxied_total{") {
		t.Fatalf("local samples must stay unlabeled:\n%s", out)
	}
	// One TYPE declaration per family even though two shards carry it.
	if strings.Count(out, "# TYPE server_requests counter") != 1 {
		t.Fatalf("family declared more than once:\n%s", out)
	}
	// The merged output must round-trip through the parser: federation
	// of a federated endpoint is legal.
	if _, err := ParseOpenMetrics(strings.NewReader(out)); err != nil {
		t.Fatalf("merged output does not re-parse: %v", err)
	}
}

func TestWriteMergedOpenMetricsLabelInjection(t *testing.T) {
	fams := []OMFamily{{
		Name: "m", Type: "summary",
		Samples: []OMSample{
			{Labels: `quantile="0.5"`, Value: "1"}, // existing labels get the shard label prepended
			{Suffix: "_count", Value: "5"},         // unlabeled gets a fresh block
		},
	}}
	var buf bytes.Buffer
	if _, err := WriteMergedOpenMetrics(&buf, []LabeledExposition{
		{Families: fams, Label: [2]string{"shard", `we"ird`}},
	}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `m{shard="we\"ird",quantile="0.5"} 1`) {
		t.Fatalf("label not injected/escaped:\n%s", out)
	}
	if !strings.Contains(out, `m_count{shard="we\"ird"} 5`) {
		t.Fatalf("unlabeled sample not labeled:\n%s", out)
	}
}

func TestWriteMergedOpenMetricsTypeConflict(t *testing.T) {
	a := []OMFamily{{Name: "m", Type: "counter", Samples: []OMSample{{Suffix: "_total", Value: "1"}}}}
	b := []OMFamily{{Name: "m", Type: "gauge", Samples: []OMSample{{Value: "2"}, {Value: "3"}}}}
	var buf bytes.Buffer
	dropped, err := WriteMergedOpenMetrics(&buf, []LabeledExposition{
		{Families: a, Label: [2]string{"shard", "0"}},
		{Families: b, Label: [2]string{"shard", "1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 2 {
		t.Fatalf("dropped = %d, want the conflicting source's 2 samples", dropped)
	}
	out := buf.String()
	if strings.Count(out, "# TYPE m counter") != 1 || strings.Contains(out, "gauge") {
		t.Fatalf("first type must win:\n%s", out)
	}
}

// The P99.9 satellite: the interpolated tail quantile must appear in
// snapshots and both exposition formats.
func TestHistogramP999(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 10_000; i++ {
		h.Observe(i)
	}
	s := h.Snapshot()
	if s.P999 == 0 {
		t.Fatal("P999 not populated")
	}
	if s.P999 < s.P99 || s.P999 > s.Max {
		t.Fatalf("P99=%d P999=%d Max=%d: tail quantile out of order", s.P99, s.P999, s.Max)
	}
	// It must render in the text form...
	r := NewRegistry()
	for i := int64(1); i <= 1000; i++ {
		r.Histogram("x.latency_ns").Observe(i)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "p99.9=") {
		t.Fatalf("text exposition lacks p99.9:\n%s", buf.String())
	}
	// ...and as a 0.999 quantile sample in OpenMetrics.
	buf.Reset()
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	validateOpenMetrics(t, buf.String())
	if !strings.Contains(buf.String(), `quantile="0.999"`) {
		t.Fatalf("openmetrics exposition lacks the 0.999 quantile:\n%s", buf.String())
	}
}
