GO ?= go
# FUZZTIME bounds each fuzz target; CI's fast-fail gate overrides it to
# 10s so a fuzz smoke runs on every push without stalling the matrix.
FUZZTIME ?= 30s
BENCH_DATE := $(shell date +%Y-%m-%d)

.PHONY: all build vet test race fleet-stress bench bench-json bench-batch bench-check bench-store check fmtcheck lint-metrics experiments fuzz serve-smoke fleet-smoke store-smoke clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fleet-stress repeats the fleet tests 20 times, plain and under -race.
# Router tests race a background health prober against their requests;
# a single pass can pass by luck where twenty do not.
fleet-stress:
	$(GO) test -count=20 ./internal/fleet
	$(GO) test -race -count=20 ./internal/fleet

fmtcheck:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# lint-metrics rejects instrument names outside [a-z0-9._] so the
# OpenMetrics exposition (/metrics?format=openmetrics) never needs a
# lossy sanitization. See scripts/metric_lint.sh.
lint-metrics:
	sh scripts/metric_lint.sh

# check is the local all-in-one gate: formatting, metric-name lint,
# vet, build, the plain test suite, the race-enabled test suite, the
# repeated fleet tests, and the fleet and store smokes. The plain run matters:
# the allocation-regression gates (testing.AllocsPerRun in
# internal/coverage) skip themselves under -race, so only a non-race
# pass enforces the zero-allocs-per-Evaluate promise. CI splits the same
# work across jobs (see .github/workflows/ci.yml): a fmt/vet/fuzz
# fast-fail gate, an {ubuntu, macos} x {oldest Go, stable} build+test
# matrix, a dedicated -race job, serving smokes, and a
# benchmark-regression job.
check: fmtcheck lint-metrics vet build test race fleet-stress fleet-smoke store-smoke

bench:
	$(GO) test -bench=. -benchmem .

# bench-json writes the machine-readable benchmark report
# (BENCH_<date>.json) that CI's bench job uploads as an artifact. The
# report records the host's CPU count, sequential cells, and 4-worker
# parallel cells for each algorithm.
bench-json:
	$(GO) run ./cmd/qpbench -exp none -parallelism 4 -metrics-json BENCH_$(BENCH_DATE).json

# bench-batch writes the batched-evaluation report
# (BENCH_<date>_batch.json): the standard sequential cells plus the
# frontier-size sweep comparing the tiled batch kernels against the
# per-plan scalar path at each frontier width. Pass
# BASELINE=BENCH_<date>.json to also regression-gate the cells against a
# checked-in report (batch cells gate once a baseline containing them
# lands).
bench-batch:
	$(GO) run ./cmd/qpbench -exp batch -metrics-json BENCH_$(BENCH_DATE)_batch.json $(if $(BASELINE),-compare $(BASELINE))

# bench-check regenerates the report and fails when any sequential
# ns/plan worsened >20% against BASELINE (a checked-in BENCH_*.json).
# CI picks the newest checked-in plain BENCH_YYYY-MM-DD.json (suffixed
# reports hold other experiments); refresh it by committing a
# bench-json artifact from a green run.
bench-check:
	@test -n "$(BASELINE)" || { echo "usage: make bench-check BASELINE=BENCH_<date>.json"; exit 2; }
	$(GO) run ./cmd/qpbench -exp none -parallelism 4 -metrics-json BENCH_$(BENCH_DATE).json -compare $(BASELINE)

# bench-store writes the cold-vs-warm segment-store report
# (BENCH_<date>_store.json): every algorithm run against the in-memory
# domain, then store-backed cold (empty page cache) and warm (immediate
# re-run), with fault/hit/residency deltas per row. The run exits
# non-zero if any store-backed plan stream diverges from the in-memory
# one. EXPERIMENTS.md's storage entry cites the checked-in report.
bench-store:
	$(GO) run ./cmd/qpbench -exp store -metrics-json BENCH_$(BENCH_DATE)_store.json

# Regenerate the paper's evaluation (Figure 6 a-l, sweeps, ablation, tta,
# soundness, greedy). Takes a minute or two.
experiments:
	$(GO) run ./cmd/qpbench -exp all -sizes 10,20,40,60 | tee results_full.txt

fuzz:
	$(GO) test -fuzz FuzzParseQuery -fuzztime $(FUZZTIME) ./internal/schema
	$(GO) test -fuzz FuzzCanonicalKey -fuzztime $(FUZZTIME) ./internal/schema
	$(GO) test -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/domfile
	$(GO) test -fuzz FuzzKernels -fuzztime $(FUZZTIME) ./internal/bitset
	$(GO) test -fuzz FuzzBatchKernels -fuzztime $(FUZZTIME) ./internal/bitset
	$(GO) test -fuzz FuzzSegmentDecode -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -fuzz FuzzCompareKey -fuzztime $(FUZZTIME) ./internal/planspace
	$(GO) test -fuzz FuzzChainConcrete -fuzztime $(FUZZTIME) ./internal/costmodel

# serve-smoke boots the qpserved daemon (race-enabled build) on a random
# port, checks the streamed plan order byte-for-byte against qporder,
# replays a concurrent shuffled burst through qpload requiring zero
# errors and session-cache hits, and SIGTERMs the daemon requiring a
# clean drain. See scripts/serve_smoke.sh.
serve-smoke:
	sh scripts/serve_smoke.sh

# fleet-smoke boots three race-enabled qpserved shards behind qprouter,
# proves scatter-gather byte-parity against single-process qporder,
# checks canonical-key session affinity, SIGTERMs a shard under paced
# load requiring zero client-visible errors and a reroute, re-proves
# parity on the 2-shard fleet, and drains everything cleanly. See
# scripts/fleet_smoke.sh.
fleet-smoke:
	sh scripts/fleet_smoke.sh

# store-smoke generates a segment store with qpgen -store, proves
# qpstore verify rejects any single corrupted byte in either file, boots
# a race-enabled qpserved -store over the clean store, proves the
# streamed plan order byte-identical to qporder -store, runs the
# parity-gated cold/warm store experiment, and drains cleanly. See
# scripts/store_smoke.sh.
store-smoke:
	sh scripts/store_smoke.sh

clean:
	rm -rf internal/schema/testdata internal/domfile/testdata
