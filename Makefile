# Targets mirror .github/workflows/ci.yml so "make check" locally means
# CI will agree.

GO ?= go

.PHONY: build test loc fuzz race crash chaos cluster-chaos staticcheck bench bench-smoke metrics-smoke tune-smoke fmt fmt-check vet check serve clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The size figure the simplicity PRs report, defined once: non-test Go
# lines outside benchmark/, per package directory and in total. Report
# only — nothing gates on it.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); \
				printf "%7d total non-test Go lines outside benchmark/\n", t }'

# Every fuzz target for FUZZTIME each, one `go test -fuzz` per target
# (go test fuzzes one target at a time); tier-1 only replays their seed
# corpora. A failing input is written under the package's
# testdata/fuzz/ — commit it and it joins the seed corpus.
FUZZTIME ?= 10s
FUZZ_TARGETS = \
	FuzzSlotMap:./internal/core \
	FuzzMeta:./internal/core \
	FuzzDeleteSet:./internal/core \
	FuzzStoreHeader:./internal/vecstore \
	FuzzTreeFile:./internal/bptree \
	FuzzDistSqBound:./internal/vecmath \
	FuzzSort:./internal/radix \
	FuzzCloserKey:./internal/hilbert \
	FuzzWALReplay:./internal/wal \
	FuzzSelect:./internal/topk \
	FuzzPagerSuperblock:./internal/pager \
	FuzzTrace:./internal/pager \
	FuzzManifest:./internal/shard \
	FuzzIdentity:./internal/shard \
	FuzzClusterManifest:./internal/cluster \
	FuzzUpstreamError:./internal/cluster \
	FuzzSearchRequest:./internal/api \
	FuzzSearchResponse:./internal/api \
	FuzzReadVecs:./internal/data \
	FuzzFrontier:./internal/slo \
	FuzzTierConfig:./internal/slo

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "== $${t%%:*} ($${t#*:}, $(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$${t%%:*}$$" -fuzztime $(FUZZTIME) $${t#*:}; \
	done

# Includes the randomized model test (internal/core, a few hundred ops
# per run; HD_MODEL_STEPS=5000 for a long one) and the tiny-pool suites.
race:
	$(GO) test -race ./...

# SIGKILL a live hdserve mid-insert-storm and prove recovery loses no
# acknowledged write (the crash-recovery CI job). Rounds default to 3;
# raise with HD_CRASH_ROUNDS=8.
crash:
	$(GO) test -v -timeout 15m ./internal/crash/

# Fault-injection + overload chaos suite under the race detector: WAL
# ENOSPC/fsync poison, compaction EIO + circuit breaker, pager read
# EIO, EIO while Open rebuilds trees of an older layout (meta.json
# untouched, the next Open rebuilds), goroutine-leak checks, the 4× overload storm, and tenant
# throttling (the chaos CI job). HD_CHAOS turns on the storm's two
# wall-clock assertions (shed latency, accepted p99), which tier-1 skips.
# Helper goroutines are checked ten times over: none outlives a Query
# (success, cancellation, EIO, a corrupt tree page), nor a Build, a
# QueryBatch or a sharded Query (success, cancellation, EIO). The WAL's
# fault tests (a compaction's log rewrite under a slow group-commit
# fsync) run ten times over too, and so do core's compaction fault tests
# (tree or vectors.pg writes failing before the meta.json commit, the
# WAL rewrite failing after it, a crash between the append to vectors.pg
# and the commit), and so do the shared buffer pool's race
# tests (TestSharedCache*): a file closing while other files' misses
# evict its frames, a file closing while the eviction hand rests on one
# of its frames, readers viewing pages while a writer replaces them and
# appends more, files opening, closing and being written beside readers
# with the trace's SIEVE replay held to the Cache's misses, and an index
# served through one frame per stripe beside a writer that compacts.
chaos:
	$(GO) test -race -count=1 ./internal/iofault/ ./internal/admission/
	HD_CHAOS=1 $(GO) test -race -count=1 -run '^Test(Fault|Chaos|Overload)' ./internal/core/ ./internal/server/
	$(GO) test -race -count=10 -run '^TestFaultQueryHelpersExit$$' ./internal/core/
	$(GO) test -race -count=10 -run '^TestFaultSpreadHelpersExit$$' ./internal/shard/
	$(GO) test -race -count=10 -run '^TestFault' ./internal/wal/
	$(GO) test -race -count=10 -run '^TestFaultCompaction' ./internal/core/
	$(GO) test -race -count=10 -run '^TestSharedCache' ./internal/pager/
	$(GO) test -race -count=10 -run '^TestTinyPoolAnswersAsLargePool$$' ./internal/core/

# Cluster robustness suite under the race detector: the coordinator's
# equivalence/failover/hedging tests, the HTTP edge both front ends
# mount (internal/api: wrapper, error mapping, deadline), the netfault
# flaky-TCP proxy tests, and the replica SIGKILL storm against real
# hdserve processes (the cluster CI job).
cluster-chaos:
	$(GO) test -race -count=1 ./internal/cluster/ ./internal/api/ ./internal/netfault/
	$(GO) test -race -count=1 -run '^TestClusterReplicaKillStorm$$' -v ./internal/crash/

# Requires staticcheck on PATH (CI installs it; there is no vendored
# copy). Configured by staticcheck.conf.
staticcheck:
	staticcheck ./...

# Full benchmark suite (the paper's tables/figures at reduced scale).
bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# What CI runs: one iteration per experiment plus core micro-benchmarks
# at -cpu 1,2 (a query alone on one CPU, and with a helper on the
# idle one), and the tree walk's three (selection, direction test, leaf-chain walk)
# and the pool's two (a miss, alone and in parallel) so they keep
# compiling. BenchmarkRefinePages builds nine 50 K-vector indexes to count
# the vector pages a query touches per store layout, so it runs once.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .
	$(GO) test -bench=. -skip=RefinePages -benchtime=50x -cpu 1,2 -run='^$$' ./internal/core/
	$(GO) test -bench=RefinePages -benchtime=1x -run='^$$' ./internal/core/
	$(GO) test -bench='SelectK4096to1024|CloserKey8|CloserKey16|WalkNearest4096' -benchtime=1x -benchmem -run='^$$' ./internal/topk/ ./internal/hilbert/ ./internal/bptree/
	$(GO) test -bench='ViewMiss' -benchtime=1x -benchmem -run='^$$' ./internal/pager/

# The observability smoke: the /metrics exposition tests (promlint-style
# parser over a live scrape) plus the load test's mid-storm scraper.
metrics-smoke:
	$(GO) test -race -run 'TestMetricsExposition|TestLoad64Clients' -count=1 ./internal/server/

# The SLO-tuning smoke: sweep a small frontier to an artifact, then
# resolve a recall target against it offline with `hdtool tune` — the
# same artifact and decision rules `hdserve -slo -frontier` serves by.
# (A frontier to serve by wants -scale 10 or above; see README.)
tune-smoke:
	$(GO) run ./cmd/hdbench -sweep alpha=64,256,1024 -scale 0.05 -queries 20 -k 10 -sweep-out tune-frontier.json
	$(GO) run ./cmd/hdtool tune -frontier tune-frontier.json -slo "recall>=0.9"

fmt:
	gofmt -l -w .

# Fails (like CI) when any file needs formatting; does not rewrite.
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

check: build vet fmt-check test race

# Build a demo index over synthetic SIFT-like data and serve it
# (ctrl-c to drain and exit).
serve:
	$(GO) run ./cmd/datagen -dataset sift -n 10000 -out /tmp/hdserve-demo.fvecs
	$(GO) run ./cmd/hdtool build -data /tmp/hdserve-demo.fvecs -index /tmp/hdserve-demo.index -omega 8
	$(GO) run ./cmd/hdserve -index /tmp/hdserve-demo.index

clean:
	rm -f tune-frontier.json
