# Development targets. CI (.github/workflows/ci.yml) runs the same commands.

GO ?= go

.PHONY: build test race vet bench bench-smoke bench-json bench-baseline bench-gate journal-smoke serve-smoke cache-smoke merge-smoke cluster-smoke ingest-smoke model-smoke fuzz-smoke cover all

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race . ./internal/stream/... ./internal/core/... ./internal/baseline/... ./internal/arbitrary/... ./internal/sampling/... ./internal/graph/... ./internal/telemetry/... ./internal/serve/... ./internal/cluster/... ./cmd/adjserved/... ./cmd/adjproxy/... ./cmd/adjmerge/...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -run=NONE -bench=. -benchmem ./...

# One iteration of every benchmark: catches bit-rot without the wait.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Tiny end-to-end journal run: one experiment with -journal (telemetry on,
# no listener), then assert the JSONL validates and re-renders, and that
# the committed journals still validate.
journal-smoke:
	@rm -f /tmp/journal-smoke.jsonl
	$(GO) run ./cmd/experiments -id F1 -seed 1 -journal /tmp/journal-smoke.jsonl >/dev/null
	$(GO) run ./cmd/runjournal -check /tmp/journal-smoke.jsonl
	$(GO) run ./cmd/runjournal -id F1 /tmp/journal-smoke.jsonl >/dev/null
	@rm -f /tmp/journal-smoke.jsonl
	$(GO) run ./cmd/runjournal -check journals/*.jsonl

# End-to-end service smoke: boot adjserved on an ephemeral port with the
# demo catalog, hit every endpoint with curl-equivalent requests, and shut
# it down with SIGTERM — the same drain path a deployment exercises.
serve-smoke:
	$(GO) test -race -run 'TestServeEndToEnd' ./cmd/adjserved/
	$(GO) vet ./internal/serve/ ./cmd/adjserved/

# Result-cache smoke: boot adjserved -demo with telemetry, send the same
# request twice, and assert the repeat is a cache hit (X-Cache header plus
# the serve.cache.* counters on /debug/vars), then the root equivalence
# and stampede tests.
cache-smoke:
	$(GO) test -race -run 'TestCacheSmoke' ./cmd/adjserved/
	$(GO) test -race -run 'TestCachedResponseByteIdenticalEveryAlgorithmAndDriver|TestCacheStampedeSingleRun' .

# Full benchmark run archived as machine-readable JSON (see cmd/bench2json).
# Three runs of each benchmark, so the archive carries a spread and
# benchdiff compares their median.
bench-json:
	$(GO) test -run=NONE -bench=. -benchmem -count 3 ./... \
		| $(GO) run ./cmd/bench2json -out BENCH_$$(date +%Y-%m-%d).json

# Refresh the committed benchmark baseline: full bench-json run, then stage
# the archive so the next commit carries it. bench-gate diffs against the
# newest committed BENCH_*.json, so rerun this after intentional perf
# changes (on a quiet machine — the baseline is only as good as the run).
bench-baseline: bench-json
	git add BENCH_*.json

# Key benchmarks that gate performance regressions. Sub-benchmarks of these
# are gated too; everything else is context-only in the benchdiff table.
# BenchmarkEstimatorCopy runs one copy of each estimator on the repository
# benchmark's cl2k graph, and BenchmarkEstimateCopies nine copies of the
# cold-estimate shapes through the copy pool (BenchmarkBroadcastK32 times
# the pool on a trivial stand-in and may go once BenchmarkEstimateCopies
# has a committed baseline); BenchmarkDatasetMerge times one
# ingest-version merge at its two merge shapes, and BenchmarkCatalogLoad one
# edge-list file load (parse, build, sorted stream, fingerprint) at the same
# two shapes. Keep this list, benchdiff's default -keys and the CI
# bench-gate job in step.
BENCH_GATE_KEYS = BenchmarkBroadcastK32|BenchmarkEstimateCopies|BenchmarkExactKernels|BenchmarkEstimateColdVsCached|BenchmarkArbFourCycle|BenchmarkEstimatorCopy|BenchmarkDatasetMerge|BenchmarkCatalogLoad
BENCH_GATE_PKGS = ./internal/stream/ ./internal/graph/ ./internal/serve/ ./internal/arbitrary/ .

# Perf regression gate: run only the key benchmarks briefly, convert to
# JSON, and diff against the newest committed BENCH_*.json baseline.
# Fails (exit 1) on a >15% ns/op regression. The benchtime is time-based,
# not -benchtime=Nx: a fixed iteration count is dominated by warmup on
# sub-100µs benchmarks and reads far slower than the 1s-benchtime
# baseline. CI runs the same pipeline with a looser threshold to absorb
# hosted-runner noise.
bench-gate:
	$(GO) test -run=NONE -bench='$(BENCH_GATE_KEYS)' -benchtime=0.3s $(BENCH_GATE_PKGS) \
		| $(GO) run ./cmd/bench2json -out /tmp/bench-gate.json
	$(GO) run ./cmd/benchdiff -new /tmp/bench-gate.json

# Cluster smoke: boot three in-process replicas plus the real adjproxy
# binary, assert proxied answers are byte-identical to a single node's
# (including under injected replica failure and total-outage fallback),
# and drain the proxy with SIGTERM — see OPERATIONS.md for the topology.
cluster-smoke:
	$(GO) test -race -run 'TestClusterSmoke|TestProxyBatch' ./cmd/adjproxy/
	$(GO) test -race -run 'TestCluster' .
	$(GO) vet ./internal/cluster/ ./cmd/adjproxy/

# Ingestion smoke: boot adjserved -demo with a small merge threshold,
# stream edge batches (staging, idempotent replay, threshold merge, flush
# merge), assert version-pinned estimates track each published version,
# then the root concurrent-ingest equivalence tests — estimates admitted
# during a batch flood must be byte-identical to cold-catalog runs of
# their pinned version, single-node and through a 3-replica fleet.
ingest-smoke:
	$(GO) test -race -run 'TestIngestSmoke' ./cmd/adjserved/
	$(GO) test -race -run 'TestIngestEquivalence' .
	$(GO) vet ./internal/serve/ ./internal/graph/

# Model-axis smoke: generate an arbitrary-order stream file, estimate over
# it from the CLI (the 3-pass 4-cycle estimator at p=1 is exact: 5 disjoint
# C4s), then the service half — an arbitrary-model POST /v1/estimate round
# trip with model echo and per-model cache isolation — plus the race-checked
# model tests at the facade and serve layers.
model-smoke:
	@rm -rf /tmp/model-smoke && mkdir -p /tmp/model-smoke
	$(GO) run ./cmd/genstream -kind disjoint-c4 -t 5 -seed 7 -format arbstream -out /tmp/model-smoke/g.arb
	$(GO) run ./cmd/cyclecount -model arbitrary -algo arb-threepass-fourcycle -prob 1 /tmp/model-smoke/g.arb \
		| tee /tmp/model-smoke/out.txt
	grep -q 'estimate:    5.00' /tmp/model-smoke/out.txt
	$(GO) test -race -run 'TestModelSmoke' ./cmd/adjserved/
	$(GO) test -race -run 'TestEstimateArbitrary|TestModel' . ./internal/serve/

# Split-run smoke: one 32-copy estimation split into four 8-copy shard
# processes, each writing a snapshot set, merged back with adjmerge and
# diffed against the unsplit parallel run. The six summary lines must match
# exactly — the split is invisible in the output.
merge-smoke:
	@rm -rf /tmp/merge-smoke && mkdir -p /tmp/merge-smoke
	$(GO) run ./cmd/genstream -kind er -n 300 -p 0.05 -seed 7 -out /tmp/merge-smoke/g.edges
	$(GO) run ./cmd/cyclecount -algo twopass-triangle -prob 0.2 -copies 32 -parallel -seed 5 \
		/tmp/merge-smoke/g.edges > /tmp/merge-smoke/single.txt
	for r in 0:8 8:16 16:24 24:32; do \
		$(GO) run ./cmd/cyclecount -algo twopass-triangle -prob 0.2 -copies 32 -parallel -seed 5 \
			-copy-range $$r -snapshot /tmp/merge-smoke/shard-$${r%:*}.snap /tmp/merge-smoke/g.edges || exit 1; \
	done
	$(GO) run ./cmd/adjmerge /tmp/merge-smoke/shard-*.snap > /tmp/merge-smoke/merged.txt
	head -6 /tmp/merge-smoke/single.txt | diff - /tmp/merge-smoke/merged.txt
	@echo "merge-smoke: split+merge output matches the single run"

# Fuzz smoke: `go test` only replays the seed corpora, so give every
# decoder that reads bytes from disk or the network a short real fuzzing
# run — text and edge-list streams, "adjC" columnar files, "adjM"
# snapshot sets and arbitrary-order edge files — plus Validate against the
# three-map check it replaced, and the graph layer's differential targets:
# the CSR kernels against the map-based oracles, Delta staging and Apply
# against a rebuild, and the Builder against the map-of-maps Builder it
# replaced. A crashing input is saved under the package's testdata/fuzz/
# for the regression suite.
FUZZ_TARGETS_STREAM = FuzzReadText FuzzReadEdgeList FuzzColumnarDecode FuzzReadSnapshotSet FuzzValidateMatchesMapModel
FUZZ_TARGETS_ARBITRARY = FuzzReadEdges
FUZZ_TARGETS_GRAPH = FuzzCSRKernels FuzzDeltaApplyMatchesRebuild FuzzBuilderMatchesMapModel

fuzz-smoke:
	for f in $(FUZZ_TARGETS_STREAM); do \
		$(GO) test -run=NONE -fuzz="^$$f\$$" -fuzztime=10s ./internal/stream/ || exit 1; \
	done
	for f in $(FUZZ_TARGETS_ARBITRARY); do \
		$(GO) test -run=NONE -fuzz="^$$f\$$" -fuzztime=10s ./internal/arbitrary/ || exit 1; \
	done
	for f in $(FUZZ_TARGETS_GRAPH); do \
		$(GO) test -run=NONE -fuzz="^$$f\$$" -fuzztime=10s ./internal/graph/ || exit 1; \
	done

cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1
