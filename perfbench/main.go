// Command perfbench is the repository's end-to-end benchmark. One run
// sets up one workload, drives it closed-loop for a fixed time, checks
// every plan stream against a sequential in-memory reference, and
// prints its metrics; the last line of standard output is a JSON
// object {correct, attempted, failed, metrics}.
//
//	perfbench --workload serve-join --seed 1 --seconds 30 --trace 0 --bin <dir> --work <dir>
//
// Workloads: serve-join (2 clients against one qpserved), fleet-mix (2
// clients against qprouter over two qpserved shards) and order-k (one
// in-process client calling the orderers). --trace 0 reports the
// end-to-end metrics; --trace 1 runs the same workload with a span
// around every layer call and reports the per-layer metrics, writing
// the spans as NDJSON into --spans. --bin names the directory holding
// the qpserved and qprouter binaries. run.sh builds everything and
// passes these flags; see README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// setups is how many times a run sets its workload up; setup_s is their
// median, and the last set-up is the one measured.
const setups = 3

// endToEnd lists the metrics --trace 0 reports, in BENCHMARK.json's order.
var endToEnd = []string{
	"setup_s", "sessions_per_s", "ttfa_p50_ms", "ttfa_p90_ms", "full_k_p50_ms", "full_k_p90_ms",
	"first_plan_p50_ms", "kth_plan_p50_ms", "kth_plan_p90_ms", "plans_per_s", "cpu_ms_per_op", "rss_p90_mb",
}

func main() {
	var (
		wl      = flag.String("workload", "", "serve-join, fleet-mix or order-k")
		seed    = flag.Int64("seed", 1, "seed of the session or request stream")
		seconds = flag.Int("seconds", 30, "measuring time")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		bin     = flag.String("bin", "", "directory holding the qpserved and qprouter binaries")
		work    = flag.String("work", "", "scratch directory for domain files and the store")
		spans   = flag.String("spans", "", "directory the traced run writes its spans to (default --work)")
		commit  = flag.String("commit", "unknown", "source commit, for the run record")
	)
	flag.Parse()
	if *spans == "" {
		*spans = *work
	}
	code, err := run(*wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *bin, *work, *spans, *commit)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// result is what a run reports.
type result struct {
	attempted, failed int
	ms                metricSet
	perLayer          map[string]float64
	rec               *recorder // the traced run's spans
}

func run(wl string, seed int64, d time.Duration, traced bool, bin, work, spans, commit string) (int, error) {
	if work == "" {
		return 2, errors.New("missing --work")
	}
	if wl != "order-k" && bin == "" {
		return 2, errors.New("missing --bin")
	}
	for _, dir := range []string{work, spans} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return 1, err
		}
	}
	var res result
	var err error
	switch wl {
	case "serve-join", "fleet-mix":
		err = runHTTP(wl, seed, d, traced, bin, work, &res)
	case "order-k":
		err = runOrder(seed, d, traced, work, &res)
	default:
		return 2, fmt.Errorf("unknown workload %q", wl)
	}
	if err == nil && traced {
		err = writeSpans(res.rec, filepath.Join(spans, fmt.Sprintf("%s-seed%d.ndjson", wl, seed)))
	}
	if err != nil {
		return 1, err
	}
	report(wl, seed, traced, commit, &res)
	if res.ms.err != nil {
		return 1, res.ms.err
	}
	if res.failed > 0 {
		return 1, fmt.Errorf("%d of %d operations failed", res.failed, res.attempted)
	}
	return 0, nil
}

// timedSetups sets the workload up `setups` times, closing all but the
// last, and records the median set-up time.
func timedSetups[T any](ms *metricSet, setup func() (T, error), close func(T)) (T, error) {
	var env T
	var times []float64
	for i := 0; i < setups; i++ {
		if i > 0 {
			close(env)
		}
		t0 := time.Now()
		e, err := setup()
		if err != nil {
			return env, err
		}
		times = append(times, time.Since(t0).Seconds())
		env = e
	}
	ms.add("setup_s", "s", median(times), len(times))
	// Collect the discarded set-ups' garbage and return it to the
	// kernel before measuring, so the measured run neither pays for it
	// nor counts it in its peak resident set.
	debug.FreeOSMemory()
	return env, nil
}

func runHTTP(wl string, seed int64, d time.Duration, traced bool, bin, work string, res *result) error {
	env, err := timedSetups(&res.ms, func() (*httpEnv, error) { return setupHTTP(wl, bin, work, seed) },
		func(e *httpEnv) { e.close() })
	if err != nil {
		return err
	}
	defer env.close()
	fmt.Printf("# %s: %d distinct canonical queries (session cache %d per shard), %d references, block of %d sessions\n",
		wl, env.family, cacheCapacity, len(env.refs), env.block)
	if !traced {
		res.attempted, res.failed, err = measureHTTP(env, d, &res.ms)
		return err
	}
	res.rec, res.perLayer = newRecorder(true), map[string]float64{}
	res.attempted, res.failed, err = traceHTTP(env, d, res.rec, res.perLayer)
	return err
}

func runOrder(seed int64, d time.Duration, traced bool, work string, res *result) error {
	env, err := timedSetups(&res.ms, func() (*orderEnv, error) { return setupOrder(work, seed) },
		func(e *orderEnv) { e.close() })
	if err != nil {
		return err
	}
	defer env.close()
	fmt.Printf("# order-k: %d cells, k=%d\n", len(env.cells), orderK)
	if !traced {
		res.attempted, res.failed, err = measureOrder(env, d, &res.ms)
		return err
	}
	res.rec, res.perLayer = newRecorder(true), map[string]float64{}
	res.attempted, res.failed = traceOrder(env, d, res.rec, res.perLayer)
	return nil
}

func writeSpans(rec *recorder, path string) error {
	if err := rec.write(path); err != nil {
		return err
	}
	fmt.Printf("# %d spans written to %s\n", len(rec.spans), path)
	return nil
}

// failuresShown bounds the failure lines printed to standard error.
var failuresShown = 0

func reportFailure(err error) {
	if failuresShown < 5 {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", err)
	}
	failuresShown++
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the metric table, the run record, and the result line.
func report(wl string, seed int64, traced bool, commit string, res *result) {
	byName := map[string]metric{}
	for _, m := range res.ms.list {
		byName[m.Name] = m
		fmt.Printf("%-36s %14.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	out := map[string]jsonMetric{}
	if traced {
		for _, pm := range perLayer {
			v := res.perLayer[pm.name]
			fmt.Printf("%-44s %14.4f %s\n", pm.name, v, pm.unit)
			out[pm.name] = jsonMetric{v, pm.unit}
		}
	} else {
		for _, name := range endToEnd {
			m := byName[name]
			out[name] = jsonMetric{m.Value, m.Unit}
		}
	}
	record := map[string]any{
		"workload": wl, "seed": seed, "trace": traced, "commit": commit,
		"cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"attempted": res.attempted, "succeeded": res.attempted - res.failed, "failed": res.failed,
	}
	b, _ := json.Marshal(map[string]any{"run_record": record})
	fmt.Println(string(b))
	b, _ = json.Marshal(map[string]any{
		"correct":   res.failed == 0 && res.ms.err == nil,
		"attempted": max(res.attempted, 1),
		"failed":    res.failed,
		"metrics":   out,
	})
	fmt.Println(string(b))
}
