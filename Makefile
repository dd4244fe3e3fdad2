# Targets mirror .github/workflows/ci.yml so "make check" locally means
# CI will agree.

GO ?= go

.PHONY: build test race crash chaos cluster-chaos staticcheck bench bench-smoke bench-compare metrics-smoke snapshot snapshot-sharded sweep tune-smoke fmt fmt-check vet check serve clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/wal/... ./internal/core/... ./internal/server/... ./internal/shard/... ./internal/fanout/... ./internal/pager/... ./internal/vecstore/... ./internal/telemetry/... ./internal/admission/... ./internal/api/... ./internal/iofault/... ./internal/slo/...

# SIGKILL a live hdserve mid-insert-storm and prove recovery loses no
# acknowledged write (the crash-recovery CI job). Rounds default to 3;
# raise with HD_CRASH_ROUNDS=8.
crash:
	$(GO) test -v -timeout 15m ./internal/crash/

# Fault-injection + overload chaos suite under the race detector: WAL
# ENOSPC/fsync poison, compaction EIO + circuit breaker, pager read
# EIO, goroutine-leak checks, the 4× overload storm, and tenant
# throttling (the chaos CI job).
chaos:
	$(GO) test -race -count=1 ./internal/iofault/ ./internal/admission/
	$(GO) test -race -count=1 -run '^Test(Fault|Chaos|Overload)' ./internal/core/ ./internal/server/

# Cluster robustness suite under the race detector: the coordinator's
# equivalence/failover/hedging tests, the netfault flaky-TCP proxy
# tests, and the replica SIGKILL storm against real hdserve processes
# (the cluster CI job).
cluster-chaos:
	$(GO) test -race -count=1 ./internal/cluster/ ./internal/netfault/
	$(GO) test -race -count=1 -run '^TestClusterReplicaKillStorm$$' -v ./internal/crash/

# Requires staticcheck on PATH (CI installs it; there is no vendored
# copy). Configured by staticcheck.conf.
staticcheck:
	staticcheck ./...

# Full benchmark suite (the paper's tables/figures at reduced scale).
bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# What CI runs: one iteration per experiment plus core micro-benchmarks.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .
	$(GO) test -bench=. -benchtime=50x -run='^$$' ./internal/core/

# The observability smoke: the /metrics exposition tests (promlint-style
# parser over a live scrape) plus the load test's mid-storm scraper.
metrics-smoke:
	$(GO) test -race -run 'TestMetricsExposition|TestLoad64Clients' -count=1 ./internal/server/

# Write a perf snapshot to SNAPSHOT_OUT. To refresh the committed
# baseline, point it at the BENCH_PR<n>.json for the current PR:
#   make snapshot SNAPSHOT_OUT=BENCH_PR1.json
# -buildscale 1 adds the build-only rows (build_ms, build_allocs,
# build_phase_ms at 10× the query-phase scale).
SNAPSHOT_OUT ?= bench-snapshot.json
snapshot:
	$(GO) run ./cmd/hdbench -snapshot $(SNAPSHOT_OUT) -scale 0.1 -queries 20 -k 20 -buildscale 1

# Sharded counterpart (the committed baseline is BENCH_PR6.json):
#   make snapshot-sharded SNAPSHOT_SHARDED_OUT=BENCH_PR6.json
# -sweep adds the recall/latency frontier rows: the same built index
# queried at several per-query alpha operating points. -ingest adds the
# mixed insert/search rows (WAL write throughput vs flush-per-insert,
# read latency under writes). -overload adds the admission-control
# storm rows (shed rate, accepted-tail latency, degraded fraction at
# ~4× the sustainable rate). -cluster adds the cluster-serving rows
# (coordinator scatter-gather vs in-process qps/p99, hedged fraction,
# failover behaviour with a dead replica). -tiered adds the
# quality-tier rows (named presets plus the SLO tuner's auto pick).
SNAPSHOT_SHARDED_OUT ?= bench-snapshot-sharded.json
SWEEP ?= alpha=128,512,2048
INGEST ?= 2000
snapshot-sharded:
	$(GO) run ./cmd/hdbench -shards 4 -snapshot $(SNAPSHOT_SHARDED_OUT) -scale 0.1 -queries 20 -k 20 -buildscale 1 -sweep $(SWEEP) -ingest $(INGEST) -overload -cluster -tiered

# Walk the recall/latency frontier on one built index (per-query alpha
# overrides; no rebuild between points) and print the rows. Override
# the spec with SWEEP=alpha=... or SWEEP=gamma=...
sweep:
	$(GO) run ./cmd/hdbench -snapshot sweep-snapshot.json -scale 0.1 -queries 20 -k 20 -sweep $(SWEEP)

# The SLO-tuning smoke: sweep a small frontier to an artifact, then
# resolve a recall target against it offline with `hdtool tune` — the
# same artifact and decision rules `hdserve -slo -frontier` serves by.
tune-smoke:
	$(GO) run ./cmd/hdbench -snapshot tune-snapshot.json -scale 0.05 -queries 20 -k 10 -sweep alpha=64,256,1024 -sweep-out tune-frontier.json
	$(GO) run ./cmd/hdtool tune -frontier tune-frontier.json -slo "recall>=0.9"

# Report-only perf diff: regenerate a sharded snapshot with the
# baseline's config and print per-dataset deltas (build_ms,
# build_allocs, mean_query_us, batch_qps, parallel_qps,
# page_reads_per_query, hit_ratio, quality — plus the build-only rows)
# against the newest committed BENCH_PR*.json (override with
# BASELINE=...). -gate makes the exit status reflect >15% regressions
# in mean_query_us/batch_qps; CI runs it under continue-on-error so the
# gate stays report-only there.
BASELINE ?= $(shell ls BENCH_PR*.json 2>/dev/null | sort -V | tail -1)
bench-compare: snapshot-sharded
	$(GO) run ./cmd/benchcompare -gate $(BASELINE) $(SNAPSHOT_SHARDED_OUT)

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
	rm -f bench-smoke.txt bench-core.txt bench-snapshot.json sweep-snapshot.json tune-snapshot.json tune-frontier.json
