// Command hdserve serves kNN queries over a built HD-Index via HTTP.
//
// Usage:
//
//	hdserve -index /data/sift.index -addr :8080
//
// Endpoints (JSON bodies; see internal/server):
//
//	POST /search       single kNN query
//	POST /searchbatch  many queries, answered on a bounded worker pool
//	POST /insert       add a vector (§3.6)
//	POST /delete       mark/unmark a vector deleted (§3.6)
//	GET  /stats        index + per-endpoint latency/QPS counters
//	GET  /metrics      Prometheus text exposition (histograms in seconds)
//	GET  /healthz      liveness probe
//
// SIGINT/SIGTERM drain in-flight requests, flush the index, and exit.
//
// Quality tiers: -preset sets the server default quality preset,
// -tiers maps X-Tenant values to tiers (preset + admission shares),
// and -slo "recall>=0.98" -frontier frontier.json runs the auto-tuner,
// which picks the cheapest operating point on the measured
// recall/latency frontier that satisfies the target and keeps
// re-picking as live re-measurement moves the frontier.
//
// With -coordinator, hdserve serves no index of its own: it reads a
// cluster manifest (-cluster-manifest) mapping each shard of a sharded
// build to its ordered replica endpoints (each a stock hdserve holding
// one shard directory), and answers /search and /searchbatch by
// scatter-gathering over them — with retries, failover, hedged
// requests, and active health checking. See internal/cluster.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	hdindex "github.com/hd-index/hdindex"
	"github.com/hd-index/hdindex/internal/cluster"
	"github.com/hd-index/hdindex/internal/server"
	"github.com/hd-index/hdindex/internal/shard"
	"github.com/hd-index/hdindex/internal/slo"
)

func main() {
	var (
		indexDir     = flag.String("index", "", "directory of a built index (required unless -coordinator)")
		addr         = flag.String("addr", ":8080", "listen address")
		parallel     = flag.Bool("parallel", true, "search the index's trees concurrently")
		batchWorkers = flag.Int("batch-workers", 0, "bound on concurrent queries per /searchbatch request (0 = GOMAXPROCS)")
		queryTimeout = flag.Duration("query-timeout", 2*time.Second, "default per-request search deadline (0 = none)")
		maxK         = flag.Int("max-k", 1000, "largest accepted k")
		maxBatch     = flag.Int("max-batch", 4096, "largest accepted /searchbatch size")
		readOnly     = flag.Bool("readonly", false, "reject /insert and /delete")
		walSync      = flag.Duration("wal-sync", 0, "WAL fsync cadence: 0 group-commits every write, >0 acks after the page-cache write and fsyncs on this interval")
		memtableMax  = flag.Int("memtable-max", 0, "memtable vectors before a background compaction folds them into the trees (0 = 4096)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "shutdown grace period for in-flight requests")
		slowQueryMs  = flag.Int("slow-query-ms", 0, "log a structured slow-query record with the per-phase breakdown for searches slower than this (0 = off)")
		pprofOn      = flag.Bool("pprof", false, "expose net/http/pprof under GET /debug/pprof/")

		maxInflight     = flag.Int("max-inflight", 0, "admitted requests executing at once; excess queue and shed with 503 (0 = unlimited)")
		maxQueue        = flag.Int("max-queue", 0, "admission queue depth before instant shedding (0 = 4x max-inflight)")
		tenantRPS       = flag.Float64("tenant-rps", 0, "per-tenant (X-Tenant header) sustained requests/sec; over-budget tenants get 429 (0 = off)")
		tenantBurst     = flag.Float64("tenant-burst", 0, "per-tenant burst allowance above -tenant-rps (0 = 2x rate)")
		degradePressure = flag.Float64("degrade-pressure", 0, "expected queue wait in seconds beyond which unpinned queries run the cheap cascade (0 = default when admission is on)")

		defaultPreset  = flag.String("preset", "", "server default quality preset for requests naming none: exact, balanced, fast, or auto (default auto)")
		tiersPath      = flag.String("tiers", "", "tenant tier config file mapping X-Tenant values to a preset and admission shares")
		sloTarget      = flag.String("slo", "", `SLO target the auto-tuner holds, e.g. "recall>=0.98" or "p99<=2ms" (requires -frontier)`)
		frontierPath   = flag.String("frontier", "", "recall/latency frontier artifact from hdbench -sweep -sweep-out (required with -slo)")
		retuneInterval = flag.Duration("retune-interval", 0, "how often the tuner re-evaluates its operating point (0 = 30s)")
		remeasureEvery = flag.Duration("remeasure-interval", 0, "how often the tuner replays sampled queries to refresh the frontier (0 = 10m, negative = never)")

		coordinator     = flag.Bool("coordinator", false, "serve as a cluster coordinator over -cluster-manifest instead of a local index")
		clusterManifest = flag.String("cluster-manifest", "", "cluster manifest path (coordinator mode; required with -coordinator)")
		retries         = flag.Int("retries", 0, "coordinator: replica attempts per sub-query (0 = 4)")
		backoffBase     = flag.Duration("backoff", 0, "coordinator: initial retry backoff, doubled per attempt with jitter (0 = 5ms)")
		backoffMax      = flag.Duration("backoff-max", 0, "coordinator: retry backoff ceiling (0 = 250ms)")
		hedgeDelay      = flag.Duration("hedge-delay", 0, "coordinator: fixed hedge trigger; 0 adapts to the windowed p99 of sub-query latency")
		noHedge         = flag.Bool("no-hedge", false, "coordinator: disable hedged requests")
		healthInterval  = flag.Duration("health-interval", 0, "coordinator: replica health-check cadence (0 = 500ms, negative disables)")
	)
	flag.Parse()
	if *coordinator {
		runCoordinator(*clusterManifest, *addr, *drainTimeout, cluster.Options{
			MaxAttempts:     *retries,
			BackoffBase:     *backoffBase,
			BackoffMax:      *backoffMax,
			SubQueryTimeout: *queryTimeout,
			HedgeDelay:      *hedgeDelay,
			DisableHedging:  *noHedge,
			HealthInterval:  *healthInterval,
			MaxK:            *maxK,
			MaxBatch:        *maxBatch,
		})
		return
	}
	for _, f := range []struct {
		set  bool
		name string
	}{
		{*clusterManifest != "", "-cluster-manifest"},
		{*retries != 0, "-retries"},
		{*backoffBase != 0, "-backoff"},
		{*backoffMax != 0, "-backoff-max"},
		{*hedgeDelay != 0, "-hedge-delay"},
		{*noHedge, "-no-hedge"},
		{*healthInterval != 0, "-health-interval"},
	} {
		if f.set {
			log.Fatalf("hdserve: %s only applies with -coordinator", f.name)
		}
	}
	if *indexDir == "" {
		log.Fatal("hdserve: -index is required")
	}

	// Quality-tier and SLO config is validated before touching the
	// index: a typo'd preset or a stale frontier path must fail fast,
	// not after a multi-second open.
	var preset hdindex.Preset
	if *defaultPreset != "" {
		p, err := hdindex.ParsePreset(*defaultPreset)
		if err != nil {
			log.Fatalf("hdserve: -preset: %v", err)
		}
		preset = p
	}
	var tiers *slo.TierConfig
	if *tiersPath != "" {
		t, err := slo.ReadTierConfig(*tiersPath)
		if err != nil {
			log.Fatalf("hdserve: -tiers: %v", err)
		}
		tiers = t
	}
	var target *slo.Target
	var frontier *slo.Frontier
	if *sloTarget != "" {
		if *frontierPath == "" {
			log.Fatal("hdserve: -slo requires -frontier (write one with hdbench -sweep ... -sweep-out)")
		}
		tg, err := slo.ParseTarget(*sloTarget)
		if err != nil {
			log.Fatalf("hdserve: -slo: %v", err)
		}
		target = &tg
		frontier, err = slo.ReadFrontier(*frontierPath)
		if err != nil {
			log.Fatalf("hdserve: -frontier: %v", err)
		}
	} else {
		for _, f := range []struct {
			set  bool
			name string
		}{
			{*frontierPath != "", "-frontier"},
			{*retuneInterval != 0, "-retune-interval"},
			{*remeasureEvery != 0, "-remeasure-interval"},
		} {
			if f.set {
				log.Fatalf("hdserve: %s only applies with -slo", f.name)
			}
		}
	}

	idx, err := hdindex.Open(*indexDir, hdindex.Options{
		Parallel:           *parallel,
		BatchWorkers:       *batchWorkers,
		WALSyncInterval:    *walSync,
		MemtableMaxVectors: *memtableMax,
	})
	if err != nil {
		log.Fatalf("hdserve: open index: %v", err)
	}
	// No defer: every exit path below ends in os.Exit, so the index is
	// closed explicitly after the drain.
	log.Printf("hdserve: opened %s: %d vectors, %d dims, %.1f MB on disk",
		*indexDir, idx.Count(), idx.Dim(), float64(idx.SizeOnDisk())/(1<<20))
	// Replay happens on any open with an uncompacted WAL tail — after a
	// crash, but also after a clean shutdown whose memtable had not hit
	// the compaction threshold yet. Both are normal.
	if ist := idx.IngestStats(); ist.Replayed > 0 {
		log.Printf("hdserve: replayed %d write-ahead-log records into the memtable", ist.Replayed)
	}
	if n := idx.NumShards(); n > 1 {
		for _, sh := range idx.Shards() {
			log.Printf("hdserve: shard %02d/%d: %d vectors, %d deleted", sh.ID, n, sh.Count, sh.Deleted)
		}
	}

	// A shard directory of a sharded build carries an identity stamp;
	// exposing it on /healthz and /stats lets a cluster coordinator
	// verify at startup that this endpoint serves the shard its manifest
	// claims. Absent (standalone index) is fine; unreadable is not.
	identity, err := shard.ReadIdentity(*indexDir)
	if err != nil {
		log.Fatalf("hdserve: read shard identity: %v", err)
	}
	if identity != nil {
		log.Printf("hdserve: serving shard %d of %d (cluster %s)",
			identity.Shard, identity.Shards, identity.ClusterUUID)
	}

	srv := server.New(idx, server.Config{
		QueryTimeout:       *queryTimeout,
		Identity:           identity,
		MaxK:               *maxK,
		MaxBatch:           *maxBatch,
		ReadOnly:           *readOnly,
		SlowQueryThreshold: time.Duration(*slowQueryMs) * time.Millisecond,
		Pprof:              *pprofOn,
		MaxInflight:        *maxInflight,
		MaxQueue:           *maxQueue,
		TenantRPS:          *tenantRPS,
		TenantBurst:        *tenantBurst,
		DegradePressure:    *degradePressure,
		DefaultPreset:      preset,
		Tiers:              tiers,
		SLO:                target,
		Frontier:           frontier,
		RetuneInterval:     *retuneInterval,
		RemeasureInterval:  *remeasureEvery,
	})
	if target != nil {
		log.Printf("hdserve: SLO tuner holding %s over %d frontier points (%s)",
			target, len(frontier.Points), *frontierPath)
	}
	if tiers != nil {
		log.Printf("hdserve: %d tenant tiers over %d mapped tenants (%s)",
			len(tiers.Tiers), len(tiers.Tenants), *tiersPath)
	}
	if *pprofOn {
		log.Print("hdserve: pprof enabled at /debug/pprof/")
	}
	serve(*addr, srv.Handler(), *drainTimeout, func() {
		if err := srv.Shutdown(); err != nil {
			log.Printf("hdserve: flush: %v", err)
		}
		if err := idx.Close(); err != nil {
			log.Printf("hdserve: close: %v", err)
		}
	})
}

// serve listens on addr until SIGINT/SIGTERM or a listener error,
// drains in-flight requests for up to drainTimeout, runs closeFn, and
// exits the process — status 1 after a listener error. A dead listener
// still drains and closes: exiting at once would lose inserts not yet
// flushed to disk.
func serve(addr string, handler http.Handler, drainTimeout time.Duration, closeFn func()) {
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		// Reap idle keep-alive connections so a slow-loris fleet cannot
		// pin file descriptors between requests.
		IdleTimeout: 60 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("hdserve: listening on %s", addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	exitCode := 0
	select {
	case err := <-errCh:
		log.Printf("hdserve: %v", err)
		exitCode = 1
	case s := <-sig:
		log.Printf("hdserve: %v, draining for up to %v", s, drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("hdserve: drain: %v", err)
	}
	closeFn()
	log.Print("hdserve: bye")
	os.Exit(exitCode)
}

// runCoordinator is main for -coordinator mode: no local index, just
// the scatter-gather layer over the manifest's shard servers.
func runCoordinator(manifestPath, addr string, drainTimeout time.Duration, opts cluster.Options) {
	if manifestPath == "" {
		log.Fatal("hdserve: -coordinator requires -cluster-manifest")
	}
	man, err := cluster.ReadManifest(manifestPath)
	if err != nil {
		log.Fatalf("hdserve: %v", err)
	}
	coord, err := cluster.New(man, opts)
	if err != nil {
		log.Fatalf("hdserve: %v", err)
	}
	// The startup identity sweep: a miswired endpoint (wrong shard,
	// wrong build, wrong dimensionality) is a configuration error and
	// refuses to start; an unreachable one is a runtime condition and
	// is left to the health checker.
	vctx, vcancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = coord.Verify(vctx)
	vcancel()
	if err != nil {
		log.Fatalf("hdserve: %v", err)
	}
	log.Printf("hdserve: coordinating %d shards (dim %d) from %s",
		coord.NumShards(), coord.Dim(), manifestPath)
	serve(addr, coord.Handler(), drainTimeout, coord.Close)
}
