package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file renders a registry snapshot in the OpenMetrics text
// exposition format (the format stock Prometheus scrapes), so the whole
// registry — counters, gauges, histograms with interpolated quantiles,
// and the calibration series — is consumable by standard tooling:
//
//   - counters become counter families with one _total sample;
//   - gauges become gauge families;
//   - histograms become summary families: the exact min and max as
//     quantile "0" and "1", the interpolated quantiles between them,
//     plus _sum and _count;
//   - calibration series become labeled families (source="..." or
//     plan="...") for q-error quantiles, signed bias, the drift EWMA,
//     and the tripped flag;
//   - the exposition ends with the mandatory "# EOF" terminator.
//
// Registry instrument names use dotted lowercase ("core.greedy.evals");
// OpenMetrics names must match [a-zA-Z_:][a-zA-Z0-9_:]*, so dots (and
// any other invalid byte) sanitize to underscores. scripts/metric_lint.sh
// keeps the repo's instrument names within [a-z0-9._], which makes the
// sanitization collision-free; should two distinct instrument names
// still sanitize to one family, every sample of that family carries an
// instrument="<original>" label so no sample is silently dropped.

// OpenMetricsContentType is the Content-Type of the exposition.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// openMetricsName sanitizes an instrument name into the OpenMetrics
// metric-name charset: every byte outside [a-zA-Z0-9_:] becomes '_',
// and a leading digit gets a '_' prefix.
func openMetricsName(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// openMetricsLabelValue escapes a label value per the exposition
// grammar: backslash, double quote, and line feed are escaped.
func openMetricsLabelValue(v string) string {
	var b strings.Builder
	b.Grow(len(v))
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// omFloat renders a sample value (integers stay integral for
// readability; the grammar accepts both).
func omFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// omWriter accumulates exposition lines, failing sticky.
type omWriter struct {
	w   io.Writer
	err error
}

func (o *omWriter) printf(format string, args ...interface{}) {
	if o.err == nil {
		_, o.err = fmt.Fprintf(o.w, format, args...)
	}
}

// family groups the original instrument names mapping to one sanitized
// family name; len > 1 means a sanitization collision, disambiguated
// with an instrument label.
type family struct {
	name      string   // sanitized family name
	originals []string // original instrument names, sorted
}

// families groups a name set by sanitized family name, sorted.
func families(names []string) []family {
	byFam := make(map[string][]string)
	for _, n := range names {
		f := openMetricsName(n)
		byFam[f] = append(byFam[f], n)
	}
	out := make([]family, 0, len(byFam))
	for f, origs := range byFam {
		sort.Strings(origs)
		out = append(out, family{name: f, originals: origs})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// sampleLabels renders the label set for one sample: the collision
// label (when needed) plus extra "key=value" pairs, already escaped.
func sampleLabels(collide bool, orig string, extra ...[2]string) string {
	var parts []string
	if collide {
		parts = append(parts, `instrument="`+openMetricsLabelValue(orig)+`"`)
	}
	for _, kv := range extra {
		parts = append(parts, kv[0]+`="`+openMetricsLabelValue(kv[1])+`"`)
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// summaryQuantiles are the quantile labels rendered for histogram and
// q-error summaries.
var summaryQuantiles = []struct {
	label string
	q     float64
}{{"0.5", 0.50}, {"0.95", 0.95}, {"0.99", 0.99}, {"0.999", 0.999}}

// WriteOpenMetrics renders the snapshot in the OpenMetrics text
// exposition format, terminated by "# EOF".
func (s Snapshot) WriteOpenMetrics(w io.Writer) error {
	o := &omWriter{w: w}

	counterNames := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		counterNames = append(counterNames, n)
	}
	for _, fam := range families(counterNames) {
		o.printf("# TYPE %s counter\n", fam.name)
		collide := len(fam.originals) > 1
		for _, orig := range fam.originals {
			o.printf("%s_total%s %d\n", fam.name, sampleLabels(collide, orig), s.Counters[orig])
		}
	}

	gaugeNames := make([]string, 0, len(s.Gauges))
	for n := range s.Gauges {
		gaugeNames = append(gaugeNames, n)
	}
	for _, fam := range families(gaugeNames) {
		o.printf("# TYPE %s gauge\n", fam.name)
		collide := len(fam.originals) > 1
		for _, orig := range fam.originals {
			o.printf("%s%s %s\n", fam.name, sampleLabels(collide, orig), omFloat(s.Gauges[orig]))
		}
	}

	histNames := make([]string, 0, len(s.Histograms))
	for n := range s.Histograms {
		histNames = append(histNames, n)
	}
	for _, fam := range families(histNames) {
		o.printf("# TYPE %s summary\n", fam.name)
		collide := len(fam.originals) > 1
		for _, orig := range fam.originals {
			h := s.Histograms[orig]
			o.printf("%s%s %d\n", fam.name, sampleLabels(collide, orig, [2]string{"quantile", "0"}), h.Min)
			for _, sq := range summaryQuantiles {
				o.printf("%s%s %d\n", fam.name,
					sampleLabels(collide, orig, [2]string{"quantile", sq.label}), h.Quantile(sq.q))
			}
			o.printf("%s%s %d\n", fam.name, sampleLabels(collide, orig, [2]string{"quantile", "1"}), h.Max)
			o.printf("%s_sum%s %d\n", fam.name, sampleLabels(collide, orig), h.Sum)
			o.printf("%s_count%s %d\n", fam.name, sampleLabels(collide, orig), h.Count)
		}
	}

	if s.Calibration != nil && !s.Calibration.Empty() {
		writeCalibFamilies(o, "calib_source", "source", s.Calibration.Sources)
		writeCalibFamilies(o, "calib_plan", "plan", s.Calibration.Plans)
	}

	o.printf("# EOF\n")
	return o.err
}

// writeCalibFamilies renders one calibration series family group: a
// q-error summary plus bias/EWMA/drifted/samples gauges, every sample
// labeled with the series name under the given label key.
func writeCalibFamilies(o *omWriter, prefix, labelKey string, series []CalibSeries) {
	if len(series) == 0 {
		return
	}
	label := func(cs CalibSeries, extra ...[2]string) string {
		kvs := append([][2]string{{labelKey, cs.Name}}, extra...)
		parts := make([]string, len(kvs))
		for i, kv := range kvs {
			parts[i] = kv[0] + `="` + openMetricsLabelValue(kv[1]) + `"`
		}
		return "{" + strings.Join(parts, ",") + "}"
	}
	o.printf("# TYPE %s_qerror summary\n", prefix)
	for _, cs := range series {
		qs := []struct {
			l string
			v float64
		}{{"0.5", cs.QErrP50}, {"0.95", cs.QErrP95}, {"0.99", cs.QErrMax}}
		for _, q := range qs {
			o.printf("%s_qerror%s %s\n", prefix, label(cs, [2]string{"quantile", q.l}), omFloat(q.v))
		}
		o.printf("%s_qerror_sum%s %s\n", prefix, label(cs), omFloat(cs.QErrSum))
		o.printf("%s_qerror_count%s %d\n", prefix, label(cs), cs.Samples)
	}
	o.printf("# TYPE %s_bias_log2 gauge\n", prefix)
	for _, cs := range series {
		o.printf("%s_bias_log2%s %s\n", prefix, label(cs), omFloat(cs.Bias))
	}
	o.printf("# TYPE %s_drift_ewma_log2 gauge\n", prefix)
	for _, cs := range series {
		o.printf("%s_drift_ewma_log2%s %s\n", prefix, label(cs), omFloat(cs.EWMA))
	}
	o.printf("# TYPE %s_drifted gauge\n", prefix)
	for _, cs := range series {
		v := 0
		if cs.Drifted {
			v = 1
		}
		o.printf("%s_drifted%s %d\n", prefix, label(cs), v)
	}
}

// WriteOpenMetrics renders the registry's snapshot in the OpenMetrics
// text exposition format. A nil registry writes only the terminator.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	return r.Snapshot().WriteOpenMetrics(w)
}
