// Command hdserve serves kNN queries over a built HD-Index via HTTP.
//
// Usage:
//
//	hdserve -index /data/sift.index -addr :8080
//
// Endpoints (JSON bodies; see internal/server):
//
//	POST /search       single kNN query
//	POST /searchbatch  many queries, spread over idle cores
//	POST /insert       add a vector (§3.6)
//	POST /delete       mark/unmark a vector deleted (§3.6)
//	GET  /stats        index + per-endpoint latency/QPS counters
//	GET  /metrics      Prometheus text exposition (histograms in seconds)
//	GET  /healthz      liveness probe
//
// SIGINT/SIGTERM drain in-flight requests, flush the index, and exit.
//
// A query's tree walks and refinement take helper goroutines only onto
// CPUs no other query holds, so one client's query uses the idle cores
// and a loaded server runs each query on one goroutine.
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
// requests, and active health checking. See internal/cluster. The two
// modes have separate flag sets (hdserve -h, hdserve -coordinator -h).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"syscall"
	"time"

	hdindex "github.com/hd-index/hdindex"
	"github.com/hd-index/hdindex/internal/api"
	"github.com/hd-index/hdindex/internal/cluster"
	"github.com/hd-index/hdindex/internal/server"
	"github.com/hd-index/hdindex/internal/shard"
	"github.com/hd-index/hdindex/internal/slo"
)

// config is what the command line decides: the mode, and the option
// structs of the packages that consume the flags. Every flag is bound
// straight into the field that uses it, and a zero field means the
// owning package's default.
type config struct {
	coordinator  bool
	addr         string
	drainTimeout time.Duration

	// Serve mode.
	indexDir string
	index    hdindex.Options
	server   server.Config

	// Coordinator mode.
	manifestPath string
	cluster      cluster.Options
}

// parseFlags reads the command line of one mode. -coordinator anywhere
// on it selects the coordinator's flag set, otherwise the server's; a
// flag of the other mode is the flag package's "provided but not
// defined" error. Every failure has been reported on stderr by the time
// it is returned (flag.ErrHelp after printing the usage).
func parseFlags(args []string, stderr io.Writer) (config, error) {
	c := config{
		coordinator: slices.Contains(args, "-coordinator") || slices.Contains(args, "--coordinator"),
	}
	if err := c.flagSet(stderr).Parse(args); err != nil {
		return c, err
	}
	var err error
	switch {
	case c.coordinator:
		if c.manifestPath == "" {
			err = errors.New("-coordinator requires -cluster-manifest")
		}
	case c.indexDir == "":
		err = errors.New("-index is required")
	case c.index.PoolPages < 0:
		err = fmt.Errorf("-pool-pages must be >= 0, got %d", c.index.PoolPages)
	case c.server.SLO != nil && c.server.Frontier == nil:
		err = errors.New("-slo requires -frontier (write one with hdbench -sweep ... -sweep-out)")
	case c.server.SLO == nil && c.server.Frontier != nil:
		err = errors.New("-frontier only applies with -slo")
	}
	if err != nil {
		fmt.Fprintf(stderr, "hdserve: %v\n", err)
	}
	return c, err
}

// flagSet declares the flags of c's mode, each bound to the field of c
// that consumes it.
func (c *config) flagSet(stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("hdserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprint(stderr, "Usage:\n  hdserve -index DIR [flags]\n  hdserve -coordinator -cluster-manifest FILE [flags]   (flags: hdserve -coordinator -h)\n\nFlags of this mode:\n")
		fs.PrintDefaults()
	}
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.DurationVar(&c.drainTimeout, "drain-timeout", 10*time.Second, "shutdown grace period for in-flight requests")
	maxK, maxBatch := &c.server.MaxK, &c.server.MaxBatch
	if c.coordinator {
		maxK, maxBatch = &c.cluster.MaxK, &c.cluster.MaxBatch
		fs.Bool("coordinator", false, "selects this mode: coordinate the shard servers of -cluster-manifest instead of serving a local index")
		fs.StringVar(&c.manifestPath, "cluster-manifest", "", "cluster manifest path (required)")
		fs.DurationVar(&c.cluster.SubQueryTimeout, "query-timeout", 2*time.Second, "deadline of one sub-query attempt against one replica (0 = 5s, not unlimited)")
		fs.DurationVar(&c.cluster.HealthInterval, "health-interval", 0, "replica health-check cadence (0 = 500ms, negative disables)")
	} else {
		fs.StringVar(&c.indexDir, "index", "", "directory of a built index (required)")
		fs.DurationVar(&c.server.QueryTimeout, "query-timeout", 2*time.Second, "default per-request search deadline (0 = none)")
		fs.BoolVar(&c.server.ReadOnly, "readonly", false, "reject /insert and /delete")
		fs.IntVar(&c.index.MemtableMaxVectors, "memtable-max", 0, "memtable vectors before a background compaction folds them into the trees (0 = 4096)")
		fs.IntVar(&c.index.PoolPages, "pool-pages", 0, "buffer-pool pages per index file, 4 KiB each, pooled across the index's files (0 = the index's build-time value, 256 unless built otherwise)")
		fs.Func("slow-query-ms", "log a structured slow-query record with the per-phase breakdown for searches slower than this many milliseconds (0 = off)", func(v string) error {
			ms, err := strconv.Atoi(v)
			c.server.SlowQueryThreshold = time.Duration(ms) * time.Millisecond
			return err
		})
		fs.BoolVar(&c.server.Pprof, "pprof", false, "expose net/http/pprof under GET /debug/pprof/")

		fs.IntVar(&c.server.Admission.MaxInflight, "max-inflight", 0, "admitted requests executing at once; excess queue (4x this deep) and shed with 503 (0 = unlimited)")
		fs.Float64Var(&c.server.Admission.TenantRPS, "tenant-rps", 0, "per-tenant (X-Tenant header) sustained requests/sec with a 2x burst; over-budget tenants get 429 (0 = off)")
		fs.Float64Var(&c.server.Admission.DegradePressure, "degrade-pressure", 0, "expected queue wait in seconds beyond which unpinned queries run the cheap cascade (0 = off)")

		// Quality-tier and SLO files are read while parsing: a typo'd
		// preset or a stale frontier path must fail before a
		// multi-second index open, not after.
		fs.Func("preset", "server default quality preset for requests naming none: exact, balanced, fast, or auto (default auto)", func(v string) (err error) {
			c.server.DefaultPreset, err = hdindex.ParsePreset(v)
			return err
		})
		fs.Func("tiers", "tenant tier config file mapping X-Tenant values to a preset and admission shares", func(path string) (err error) {
			c.server.Tiers, err = slo.ReadTierConfig(path)
			return err
		})
		fs.Func("slo", `SLO target the auto-tuner holds, e.g. "recall>=0.98" or "p99<=2ms" (requires -frontier)`, func(v string) error {
			target, err := slo.ParseTarget(v)
			if err == nil {
				c.server.SLO = &target
			}
			return err
		})
		fs.Func("frontier", "recall/latency frontier artifact from hdbench -sweep -sweep-out (required with -slo)", func(path string) (err error) {
			c.server.Frontier, err = slo.ReadFrontier(path)
			return err
		})
	}
	fs.IntVar(maxK, "max-k", api.DefaultMaxK, "largest accepted k")
	fs.IntVar(maxBatch, "max-batch", api.DefaultMaxBatch, "largest accepted /searchbatch size")
	return fs
}

func main() {
	c, err := parseFlags(os.Args[1:], os.Stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case err != nil:
		os.Exit(2) // parseFlags has said why
	case c.coordinator:
		runCoordinator(c)
	default:
		runServer(c)
	}
}

// runServer is main for the default mode: open the index and serve it.
func runServer(c config) {
	idx, err := hdindex.Open(c.indexDir, c.index)
	if err != nil {
		log.Fatalf("hdserve: open index: %v", err)
	}
	// No defer: every exit path below ends in os.Exit, so the index is
	// closed explicitly after the drain.
	info := idx.Info()
	log.Printf("hdserve: opened %s: %d vectors, %d dims, %.1f MB on disk",
		c.indexDir, info.Count, info.Dim, float64(info.SizeOnDisk)/(1<<20))
	// Replay happens on any open with an uncompacted WAL tail — after a
	// crash, but also after a clean shutdown whose memtable had not hit
	// the compaction threshold yet. Both are normal.
	if info.WAL.Replayed > 0 {
		log.Printf("hdserve: replayed %d write-ahead-log records into the memtable", info.WAL.Replayed)
	}
	if info.NumShards > 1 {
		for _, sh := range info.Shards {
			log.Printf("hdserve: shard %02d/%d: %d vectors, %d deleted", sh.ID, info.NumShards, sh.Count, sh.Deleted)
		}
	}

	// A shard directory of a sharded build carries an identity stamp;
	// exposing it on /healthz and /stats lets a cluster coordinator
	// verify at startup that this endpoint serves the shard its manifest
	// claims. Absent (standalone index) is fine; unreadable is not.
	c.server.Identity, err = shard.ReadIdentity(c.indexDir)
	if err != nil {
		log.Fatalf("hdserve: read shard identity: %v", err)
	}
	if id := c.server.Identity; id != nil {
		log.Printf("hdserve: serving shard %d of %d (cluster %s)", id.Shard, id.Shards, id.ClusterUUID)
	}

	srv := server.New(idx, c.server)
	if c.server.SLO != nil {
		log.Printf("hdserve: SLO tuner holding %s over %d frontier points", c.server.SLO, len(c.server.Frontier.Points))
	}
	if t := c.server.Tiers; t != nil {
		log.Printf("hdserve: %d tenant tiers over %d mapped tenants", len(t.Tiers), len(t.Tenants))
	}
	if c.server.Pprof {
		log.Print("hdserve: pprof enabled at /debug/pprof/")
	}
	serve(c.addr, srv.Handler(), c.drainTimeout, func() {
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
func runCoordinator(c config) {
	man, err := cluster.ReadManifest(c.manifestPath)
	if err != nil {
		log.Fatalf("hdserve: %v", err)
	}
	coord, err := cluster.New(man, c.cluster)
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
		coord.NumShards(), coord.Dim(), c.manifestPath)
	serve(c.addr, coord.Handler(), c.drainTimeout, coord.Close)
}
