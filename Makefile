# Same commands CI runs (.github/workflows/ci.yml) — keep them in sync.

GO ?= go

# The benchmark selection `make bench` runs, overridable so CI can widen
# the run without editing this file:
#   make bench BENCH='BenchmarkBatchVsSequential|BenchmarkCacheHitMiss' BENCHTIME=5x
BENCH ?= BenchmarkBatchVsSequential
BENCHTIME ?= 2x

# Pinned staticcheck release, shared by `make staticcheck` and the CI
# step (bump both by changing only this line).
STATICCHECK_VERSION ?= 2025.1.1

# Pinned govulncheck release for `make govulncheck` (known-vulnerability
# scan of the module and its stdlib usage).
GOVULNCHECK_VERSION ?= v1.1.4

# Pinned golang.org/x/tools release for the extra vet-style analyzers
# (nilness, shadow) that plain `go vet` does not run.
XTOOLS_VERSION ?= v0.30.0

# Tolerated q/s regression fraction of the bench gate.
MAX_REGRESS ?= 0.25

# Seconds each native fuzz target runs in the `make fuzz` smoke (six
# targets: FuzzLevenshtein, FuzzBatchKernels, FuzzDecodeQuery,
# FuzzSnapshotHeader, FuzzPredicateParse, FuzzPredicateEval).
FUZZTIME ?= 10s

# Packages with a parallel build, the concurrent query engine, the
# update/query synchronization layer, the answer cache, or the shared
# scratch pools of the batched kernel paths: the race-detector gate of
# `make race`.
RACE_PKGS = ./internal/exec/... ./internal/epoch/... ./internal/server/... \
            ./internal/shard/... ./internal/table/... ./internal/mvpt/... \
            ./internal/ept/... ./internal/cpt/... ./internal/omni/... \
            ./internal/core/... ./internal/store/... ./internal/bench/... \
            ./internal/cache/... ./internal/bkt/... ./internal/fqt/... \
            ./internal/mtree/... ./internal/pmtree/... ./internal/persist/... \
            ./internal/bptree/... ./internal/rtree/... ./internal/spb/... \
            ./internal/mindex/... ./internal/pivot/... ./internal/dataset/... \
            ./internal/obs/... ./internal/plan/... .

# The example programs CI runs end to end so example rot fails the
# pipeline (each finishes in well under a second).
EXAMPLES = ./examples/quickstart ./examples/wordsearch ./examples/geosearch \
           ./examples/imagesearch ./examples/cachedsearch

.PHONY: all build test race fuzz bench bench-json bench-baseline bench-gate \
        staticcheck govulncheck lint fmt vet examples serve-smoke load-smoke \
        perfbench-test ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# The benchmark harness is its own module (perfbench/go.mod, replacing
# metricindex with this checkout), so `go build ./...` above never
# compiles it: vet and test it separately, so an API change it depends on
# fails here rather than in the benchmark run.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Short native-fuzzing smoke: each target fuzzes for FUZZTIME (Go allows
# one -fuzz target per invocation, hence one run each).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzLevenshtein -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzBatchKernels -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzDecodeQuery -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzSnapshotHeader -fuzztime=$(FUZZTIME) ./internal/persist
	$(GO) test -run='^$$' -fuzz=FuzzPredicateParse -fuzztime=$(FUZZTIME) ./internal/plan
	$(GO) test -run='^$$' -fuzz=FuzzPredicateEval -fuzztime=$(FUZZTIME) ./internal/plan

bench:
	$(GO) test -bench='$(BENCH)' -benchtime=$(BENCHTIME) -run=^$$ .

# Machine-readable throughput measurements (cmd/benchjson): BENCH_PR.json
# is what the CI bench job uploads and gates against the committed
# BENCH_BASELINE.json. Refresh the baseline with `make bench-baseline`
# when the CI runner class (or a deliberate perf change) moves the floor.
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_PR.json

bench-baseline:
	$(GO) run ./cmd/benchjson -out BENCH_BASELINE.json

bench-gate: bench-json
	$(GO) run ./cmd/benchjson -baseline BENCH_BASELINE.json \
		-current BENCH_PR.json -max-regress $(MAX_REGRESS)

staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

govulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# The repo's own static-analysis suite (internal/analysis, run by
# cmd/metriclint): epoch lock-section discipline, wire-codec symmetry +
# frozen on-disk constants, noalloc hot-path annotations, and error
# consumption in the durability packages. Pure stdlib — runs offline.
# See docs/STATIC_ANALYSIS.md.
lint:
	$(GO) run ./cmd/metriclint ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# go vet plus the x/tools analyzers it does not include: nilness (nil
# dereference paths) and shadow (shadowed variable rebinding). The extra
# analyzers download x/tools on first run, like staticcheck.
vet:
	$(GO) vet ./...
	$(GO) run golang.org/x/tools/go/analysis/passes/nilness/cmd/nilness@$(XTOOLS_VERSION) ./...
	$(GO) run golang.org/x/tools/go/analysis/passes/shadow/cmd/shadow@$(XTOOLS_VERSION) ./...

examples:
	@for e in $(EXAMPLES); do \
		echo "run $$e"; \
		$(GO) run $$e >/dev/null || exit 1; \
	done

# Boot mserve on a generated dataset and exercise every endpoint plus a
# live index swap, verifying each answer against the direct index call
# and a linear scan (the same check msearch -verify runs, which also
# gates the dataset first). The last two legs prove durability: the
# first -data-dir run builds, snapshots, and journals; the second must
# restore from disk without rebuilding (-require-restore fails the boot
# otherwise) and still pass every smoke check.
serve-smoke:
	$(GO) run ./cmd/datagen -kind LA -n 3000 -queries 10 -out /tmp/mserve-smoke.midx
	$(GO) run ./cmd/msearch -data /tmp/mserve-smoke.midx -index LAESA -k 5 -verify >/dev/null
	$(GO) run ./cmd/mserve -data /tmp/mserve-smoke.midx -index LAESA -smoke
	$(GO) run ./cmd/mserve -data /tmp/mserve-smoke.midx -index SPB-tree -shards 2 -smoke
	rm -rf /tmp/mserve-smoke-state
	$(GO) run ./cmd/mserve -data /tmp/mserve-smoke.midx -index LAESA -smoke \
		-data-dir /tmp/mserve-smoke-state
	$(GO) run ./cmd/mserve -data /tmp/mserve-smoke.midx -index LAESA -smoke \
		-data-dir /tmp/mserve-smoke-state -require-restore

# Production load harness smoke: generate an attributed dataset, boot
# mserve on a loopback port, and drive a short loadgen ramp that must
# finish error-free with nonzero filtered throughput and all three
# planner strategies (pre/probe/post) chosen at least once — the
# end-to-end proof of the filtered-search stack under concurrency.
# LAESA is deliberate: a probe-capable index is what lets the planner
# reach all three strategies. See docs/HYBRID.md.
LOADSMOKE_ADDR ?= 127.0.0.1:18099
load-smoke:
	$(GO) build -o /tmp/mx-loadsmoke-mserve ./cmd/mserve
	$(GO) build -o /tmp/mx-loadsmoke-loadgen ./cmd/loadgen
	$(GO) run ./cmd/datagen -kind LA -n 8000 -queries 200 -attrs -out /tmp/mx-loadsmoke.midx
	@/tmp/mx-loadsmoke-mserve -data /tmp/mx-loadsmoke.midx -index LAESA \
		-addr $(LOADSMOKE_ADDR) & SRV=$$!; \
	/tmp/mx-loadsmoke-loadgen -addr http://$(LOADSMOKE_ADDR) \
		-data /tmp/mx-loadsmoke.midx -ramp 4,16,32 -step 10s -assert \
		-out /tmp/mx-loadsmoke-report.json; \
	rc=$$?; kill $$SRV 2>/dev/null; wait $$SRV 2>/dev/null; exit $$rc

# The full CI surface: the test and lint jobs' steps plus the bench
# job's gate (vet's extra analyzers, staticcheck, govulncheck and
# bench-gate need module downloads, so an offline run can cherry-pick
# the other targets individually — lint itself is pure stdlib).
ci: build vet fmt lint staticcheck govulncheck test perfbench-test race fuzz examples serve-smoke load-smoke bench-gate
