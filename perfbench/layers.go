package main

// perLayerMetric is one per-layer metric of BENCHMARK.json. A traced
// run reports every one; a layer the workload does not exercise reads 0.
type perLayerMetric struct{ name, unit string }

var perLayer = func() []perLayerMetric {
	l := []perLayerMetric{
		{"http.headers_ms", "ms"}, {"http.first_plan_ms", "ms"}, {"http.plan_gap_ms", "ms"},
		{"fleet.hop_ms", "ms"}, {"fleet.scatter_merge_ms", "ms"}, {"fleet.shard_skew", "ratio"},
		{"server.cache_hit_ratio", "ratio"}, {"server.encode_us", "us"},
		{"schema.parse_us", "us"}, {"reformulate.prepare_ms", "ms"},
		{"containment.sound_us", "us"}, {"mediator.new_us", "us"},
		{"execsim.execute_ms", "ms"}, {"execsim.new_answer_frac", "ratio"},
		{"execsim.mallocs_per_plan", "count"}, {"execsim.share", "ratio"},
	}
	for _, pair := range orderPairs {
		l = append(l,
			perLayerMetric{"core.build_ms." + pair, "ms"},
			perLayerMetric{"core.next_us." + pair, "us"},
			perLayerMetric{"measure.evals_per_plan." + pair, "count"},
			perLayerMetric{"core.mallocs_per_plan." + pair, "count"})
	}
	l = append(l,
		perLayerMetric{"core.dominance_tests_per_plan.idrips", "count"},
		perLayerMetric{"core.dominance_tests_per_plan.streamer", "count"},
		perLayerMetric{"core.refinements_per_plan.idrips", "count"},
		perLayerMetric{"core.splits_per_plan.idrips", "count"},
		perLayerMetric{"core.splits_per_plan.streamer", "count"},
		perLayerMetric{"measure.indep_hit_ratio.pi", "ratio"},
		perLayerMetric{"store.page_hit_ratio", "ratio"},
		perLayerMetric{"store.next_us.pi.coverage", "us"},
		perLayerMetric{"core.share", "ratio"},
		perLayerMetric{"runtime.gc_cpu_frac", "ratio"},
		perLayerMetric{"trace.overhead_frac", "ratio"},
		perLayerMetric{"trace.unaccounted_frac", "ratio"})
	return l
}()

// orderPairs are the order-k (algorithm, measure) pairs that apply:
// Streamer needs diminishing returns, which caching takes away.
var orderPairs = []string{
	"pi.coverage", "idrips.coverage", "streamer.coverage",
	"pi.chain-fail-caching", "idrips.chain-fail-caching",
	"pi.monetary", "idrips.monetary", "streamer.monetary",
}
