// Command hdtool builds, inspects and queries HD-Index structures on
// disk.
//
// Usage:
//
//	hdtool build -data vectors.fvecs -index ./my.index [-tau 8 -omega 16 -m 10]
//	hdtool query -index ./my.index -queries q.fvecs -k 10 [-out results.ivecs]
//	hdtool info  -index ./my.index
//	hdtool check ./my.index
//	hdtool tune  -frontier frontier.json -slo "recall>=0.98"
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	hdindex "github.com/hd-index/hdindex"
	"github.com/hd-index/hdindex/internal/data"
	"github.com/hd-index/hdindex/internal/shard"
	"github.com/hd-index/hdindex/internal/slo"
	"github.com/hd-index/hdindex/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "build":
		err = runBuild(os.Args[2:])
	case "query":
		err = runQuery(os.Args[2:])
	case "info":
		err = runInfo(os.Args[2:])
	case "check":
		err = runCheck(os.Args[2:])
	case "tune":
		err = runTune(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hdtool: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  hdtool build -data vectors.fvecs -index DIR [-shards N] [-tau N -omega N -m N -alpha N -gamma N -ptolemaic]
  hdtool query -index DIR -queries q.fvecs -k K [-out results.ivecs]
               [-alpha N -gamma N -ptolemaic=BOOL -stats]
  hdtool info  -index DIR
  hdtool check DIR
  hdtool tune  -frontier frontier.json [-slo "recall>=0.98" | -slo "p99<=2ms"]`)
}

func runBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	dataPath := fs.String("data", "", "fvecs file with the dataset")
	indexDir := fs.String("index", "", "output index directory")
	tau := fs.Int("tau", 0, "number of RDB-trees (0 = paper default)")
	omega := fs.Int("omega", 0, "Hilbert order (0 = default)")
	m := fs.Int("m", 0, "reference objects (0 = default 10)")
	alpha := fs.Int("alpha", 0, "candidates per tree (0 = default)")
	gamma := fs.Int("gamma", 0, "filter survivors per tree (0 = alpha/4)")
	pto := fs.Bool("ptolemaic", false, "enable the Ptolemaic filter")
	seed := fs.Int64("seed", 42, "random seed")
	shards := fs.Int("shards", 0, "split the index into N concurrently built shards (0 = single index)")
	fs.Parse(args)
	if *dataPath == "" || *indexDir == "" {
		return errors.New("build: -data and -index are required")
	}
	// The flat reader keeps the dataset in one backing array — at
	// million-vector scale that halves load-time heap overhead vs one
	// slice per vector; Rows only adds aliasing headers.
	flat, dim, err := data.ReadFvecsFlat(*dataPath)
	if err != nil {
		return err
	}
	if len(flat) == 0 {
		return fmt.Errorf("build: %s holds no vectors", *dataPath)
	}
	vectors := data.Rows(flat, dim)
	fmt.Printf("read %d vectors of %d dims\n", len(vectors), dim)
	// Ctrl-C cancels the build cleanly: no commit point is written, so
	// a later Open rejects the partial directory instead of serving it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	t0 := time.Now()
	ix, err := hdindex.BuildContext(ctx, *indexDir, vectors, hdindex.Options{
		Tau: *tau, Omega: *omega, M: *m,
		Alpha: *alpha, Gamma: *gamma, UsePtolemaic: *pto, Seed: *seed,
		Shards: *shards,
	})
	if err != nil {
		return err
	}
	defer ix.Close()
	layout := "single index"
	if *shards > 0 {
		layout = fmt.Sprintf("%d shards", *shards)
	}
	fmt.Printf("built %s in %v, %d bytes on disk\n", layout, time.Since(t0).Round(time.Millisecond), ix.SizeOnDisk())
	if bs := ix.BuildStats(); bs != nil {
		fmt.Printf("build phases (ms): refdists=%.1f encode=%.1f sort=%.1f bulkload=%.1f (total %.1f, %d allocs)\n",
			bs.RefDistsMS, bs.EncodeMS, bs.SortMS, bs.BulkLoadMS, bs.TotalMS, bs.Allocs)
	}
	return nil
}

func runQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	indexDir := fs.String("index", "", "index directory")
	queriesPath := fs.String("queries", "", "fvecs file with queries")
	k := fs.Int("k", 10, "neighbours to return")
	out := fs.String("out", "", "optional ivecs output of result ids")
	alpha := fs.Int("alpha", 0, "per-query override of the leaf candidates per tree (0 = built default)")
	gamma := fs.Int("gamma", 0, "per-query override of the filter survivors per tree (0 = built default)")
	pto := fs.Bool("ptolemaic", false, "per-query Ptolemaic filter override (only applied when the flag is given)")
	stats := fs.Bool("stats", false, "print per-query work counters (candidates, page reads, hit ratio) and the per-phase span breakdown")
	fs.Parse(args)
	if *indexDir == "" || *queriesPath == "" {
		return errors.New("query: -index and -queries are required")
	}
	// A bool flag cannot distinguish "absent" from "false" by value, and
	// -ptolemaic=false (forcing the filter OFF on an index built with
	// it) is a meaningful request — so flag presence is what arms the
	// override. Negative knobs are the index's ErrBadOptions, never
	// "unset".
	o := hdindex.SearchOptions{Alpha: *alpha, Gamma: *gamma}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "ptolemaic" {
			o.Ptolemaic = pto
		}
	})
	opts := []hdindex.QueryOption{hdindex.WithOptions(o)}
	if *stats {
		opts = append(opts, hdindex.WithStats())
	}
	ix, err := hdindex.Open(*indexDir, hdindex.Options{})
	if err != nil {
		return err
	}
	defer ix.Close()
	qflat, qdim, err := data.ReadFvecsFlat(*queriesPath)
	if err != nil {
		return err
	}
	if len(qflat) == 0 {
		return fmt.Errorf("query: %s holds no vectors", *queriesPath)
	}
	queries := data.Rows(qflat, qdim)
	ctx := context.Background()
	results := make([][]uint64, len(queries))
	var sum hdindex.Stats
	t0 := time.Now()
	for qi, q := range queries {
		resp, err := ix.Query(ctx, q, *k, opts...)
		if err != nil {
			return err
		}
		ids := make([]uint64, len(resp.Results))
		for i, r := range resp.Results {
			ids[i] = r.ID
		}
		results[qi] = ids
		if resp.Stats != nil {
			sum.Add(*resp.Stats)
		}
	}
	elapsed := time.Since(t0)
	fmt.Printf("%d queries, k=%d: %.3f ms/query\n",
		len(queries), *k, float64(elapsed.Microseconds())/1000/float64(len(queries)))
	if *stats {
		nq := float64(len(queries))
		fmt.Printf("effective cascade: alpha=%d beta=%d gamma=%d ptolemaic=%v\n",
			sum.Alpha, sum.Beta, sum.Gamma, sum.Ptolemaic)
		hitRatio := 0.0
		if total := sum.PageHits + sum.PageMisses; total > 0 {
			hitRatio = float64(sum.PageHits) / float64(total)
		}
		fmt.Printf("per query: %.1f candidates, %.1f tree entries, %.1f page reads, hit ratio %.3f\n",
			float64(sum.Candidates)/nq, float64(sum.TreeEntries)/nq, float64(sum.PageReads)/nq, hitRatio)
		if total := sum.Phases.Total(); total > 0 {
			fmt.Printf("phase breakdown (mean per query):\n")
			for i, ns := range sum.Phases {
				fmt.Printf("  %-14s %8.1f us  %5.1f%%\n",
					telemetry.Phase(i), float64(ns)/1e3/nq, 100*float64(ns)/float64(total))
			}
		}
	}
	for qi, ids := range results {
		if qi >= 5 {
			fmt.Printf("... (%d more)\n", len(results)-5)
			break
		}
		fmt.Printf("query %d: %v\n", qi, ids)
	}
	if *out != "" {
		if err := data.WriteIvecs(*out, results); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	return nil
}

func runInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	indexDir := fs.String("index", "", "index directory")
	fs.Parse(args)
	if *indexDir == "" {
		return errors.New("info: -index is required")
	}
	ix, err := hdindex.Open(*indexDir, hdindex.Options{})
	if err != nil {
		return err
	}
	defer ix.Close()
	info := ix.Info()
	fmt.Printf("vectors:       %d\n", info.Count)
	fmt.Printf("dimensions:    %d\n", info.Dim)
	fmt.Printf("deleted:       %d\n", info.Deleted)
	fmt.Printf("size on disk:  %d bytes (%.1f MB)\n", info.SizeOnDisk, float64(info.SizeOnDisk)/(1<<20))

	if !shard.IsSharded(*indexDir) {
		fmt.Printf("layout:        single index\n")
		fmt.Printf("store order:   %s\n", storeOrder(info.Shards[0]))
		fmt.Printf("records:       %s\n", info.Shards[0].Records)
		return nil
	}
	man, err := shard.ReadManifest(*indexDir)
	if err != nil {
		return err
	}
	fmt.Printf("layout:        sharded (manifest v%d)\n", man.FormatVersion)
	fmt.Printf("created:       %s\n", time.Unix(man.CreatedUnix, 0).UTC().Format(time.RFC3339))
	fmt.Printf("shards:        %d\n", man.Shards)
	for _, sh := range info.Shards {
		fmt.Printf("  shard-%02d:    %d vectors, %d deleted, %d bytes; %s; %s\n",
			sh.ID, sh.Count, sh.Deleted, sh.SizeOnDisk, storeOrder(sh), sh.Records)
	}
	return nil
}

// storeOrder describes where a shard's vectors sit in vectors.pg.
func storeOrder(sh hdindex.ShardInfo) string {
	if sh.Clustered == 0 {
		return "arrival order (no ids.pg; a rebuild clusters)"
	}
	return fmt.Sprintf("tree-0 Hilbert order over the %d built vectors (ids.pg), %d appended behind them",
		sh.Clustered, sh.Count-sh.Clustered)
}

// runCheck is the index fsck: it opens the directory (recovering it like
// any Open, WAL replay included) and verifies what no query would notice
// broken. Exit status 1 and the first violation on stderr when one is
// found.
func runCheck(args []string) error {
	if len(args) != 1 {
		return errors.New("check: usage: hdtool check DIR")
	}
	ix, err := hdindex.Open(args[0], hdindex.Options{})
	if err != nil {
		return err
	}
	defer ix.Close()
	reps, err := ix.Check(context.Background())
	for i, r := range reps {
		fmt.Printf("shard-%02d: %d vectors (%d clustered, %d purged), %d trees, %d entries per tree re-derived from their vectors, at most %d key-prefix ties per tree: ok\n",
			i, r.Vectors, r.Clustered, r.Purged, r.Trees, r.Verified, r.KeyTies)
	}
	return err
}

// runTune inspects a frontier artifact offline: it prints the measured
// operating points and, with -slo, the point the serving tuner would
// pick for that target — the dry-run an operator does before wiring
// `hdserve -slo -frontier` up.
func runTune(args []string) error {
	fs := flag.NewFlagSet("tune", flag.ExitOnError)
	frontierPath := fs.String("frontier", "", "frontier artifact from hdbench -sweep -sweep-out")
	sloTarget := fs.String("slo", "", `target to resolve, e.g. "recall>=0.98" or "p99<=2ms"`)
	fs.Parse(args)
	if *frontierPath == "" {
		return errors.New("tune: -frontier is required")
	}
	f, err := slo.ReadFrontier(*frontierPath)
	if err != nil {
		return err
	}
	fmt.Printf("frontier: %s (dataset %q, k=%d, %d points)\n",
		*frontierPath, f.Dataset, f.K, len(f.Points))
	fmt.Printf("  %8s %8s %14s %14s %8s %6s\n", "alpha", "gamma", "mean_query_us", "p99_query_us", "recall", "live")
	for _, p := range f.Points {
		live := ""
		if p.Live {
			live = "yes"
		}
		fmt.Printf("  %8d %8d %14.1f %14.1f %8.4f %6s\n",
			p.Alpha, p.Gamma, p.MeanQueryUS, p.P99QueryUS, p.Recall, live)
	}
	if *sloTarget == "" {
		return nil
	}
	target, err := slo.ParseTarget(*sloTarget)
	if err != nil {
		return err
	}
	tuner, err := slo.NewTuner(f, slo.Config{Target: target})
	if err != nil {
		return err
	}
	ch := tuner.Current()
	fmt.Printf("\ntarget %s -> alpha=%d gamma=%d (mean %.1fus, p99 %.1fus, recall %.4f)\n",
		target, ch.Alpha, ch.Gamma, ch.Point.MeanQueryUS, ch.Point.P99QueryUS, ch.Point.Recall)
	fmt.Printf("  %s\n", ch.Reason)
	if ch.SLOUnmet {
		fmt.Printf("  WARNING: no frontier point satisfies the target (slo_unmet)\n")
	}
	return nil
}
