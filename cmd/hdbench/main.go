// Command hdbench regenerates the paper's tables and figures.
//
// Usage:
//
//	hdbench -exp fig8 -scale 1 -queries 50
//	hdbench -exp all
//	hdbench -snapshot out.json -sweep alpha=512,1024,2048
//	hdbench -list
//
// Each experiment prints the same rows/series the corresponding table or
// figure of the paper reports; -list prints the experiment ids with the
// table or figure each reproduces (README.md, "Benchmarks").
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/hd-index/hdindex/internal/bench"
	"github.com/hd-index/hdindex/internal/slo"
)

func main() {
	var (
		exp        = flag.String("exp", "", "experiment id (see -list), or 'all'")
		list       = flag.Bool("list", false, "list available experiments")
		scale      = flag.Float64("scale", 1.0, "dataset scale multiplier")
		queries    = flag.Int("queries", 50, "queries per dataset")
		k          = flag.Int("k", 100, "neighbours for MAP@k experiments")
		workdir    = flag.String("workdir", "", "scratch directory for on-disk indexes")
		seed       = flag.Int64("seed", 42, "random seed")
		snapshot   = flag.String("snapshot", "", "write a machine-readable HD-Index perf snapshot (JSON) to this file and exit")
		shards     = flag.Int("shards", 0, "build the snapshot index as a sharded layout with N shards (0 = single index)")
		buildscale = flag.Float64("buildscale", 0, "add build-only rows to the snapshot at this dataset scale (0 = none; 1 = full harness size)")
		sweep      = flag.String("sweep", "", "walk a per-query knob over the built index and add recall/latency frontier rows to the snapshot (alpha=a1,a2,... or gamma=g1,g2,...)")
		ingest     = flag.Int("ingest", 0, "add mixed insert/search rows to the snapshot: this many concurrent WAL-durable inserts per dataset, with the flush-per-insert comparison (0 = none)")
		overload   = flag.Bool("overload", false, "add overload-storm rows to the snapshot: serve each dataset over HTTP with admission control on at ~4x the sustainable rate and report shed rate, accepted p99, degraded fraction")
		clusterRow = flag.Bool("cluster", false, "add cluster-serving rows to the snapshot: serve each dataset both in-process and as a coordinator-fronted cluster of per-shard servers and report qps/p99, hedged fraction, failover behaviour")
		tiered     = flag.Bool("tiered", false, "add quality-tier rows to the snapshot: each named preset (exact/balanced/fast) plus the SLO tuner's auto choice measured on the built index")
		sweepOut   = flag.String("sweep-out", "", "also write the first dataset's sweep rows as a frontier artifact (JSON) the server's SLO tuner loads (-frontier); requires -sweep")
	)
	flag.Parse()

	if *list {
		reg := bench.Registry()
		fmt.Println("available experiments:")
		for _, id := range bench.IDs() {
			fmt.Printf("  %-18s %s\n", id, reg[id].Description)
		}
		return
	}
	cfg := bench.Config{
		Scale:      *scale,
		Queries:    *queries,
		K:          *k,
		WorkDir:    *workdir,
		Seed:       *seed,
		Shards:     *shards,
		BuildScale: *buildscale,
		Ingest:     *ingest,
		Overload:   *overload,
		Cluster:    *clusterRow,
		Tiered:     *tiered,
	}

	// The experiment runners always measure the monolithic index (they
	// reproduce the paper); only the snapshot consults -shards, and only
	// positive values select the sharded layout. Reject anything else
	// rather than silently measuring the wrong layout.
	if *shards < 0 {
		fmt.Fprintln(os.Stderr, "hdbench: -shards must be >= 0")
		os.Exit(2)
	}
	if *shards > 0 && *snapshot == "" {
		fmt.Fprintln(os.Stderr, "hdbench: -shards only applies to -snapshot")
		os.Exit(2)
	}
	if *buildscale < 0 {
		fmt.Fprintln(os.Stderr, "hdbench: -buildscale must be >= 0")
		os.Exit(2)
	}
	if *buildscale > 0 && *snapshot == "" {
		fmt.Fprintln(os.Stderr, "hdbench: -buildscale only applies to -snapshot")
		os.Exit(2)
	}
	if *ingest < 0 {
		fmt.Fprintln(os.Stderr, "hdbench: -ingest must be >= 0")
		os.Exit(2)
	}
	if *ingest > 0 && *snapshot == "" {
		fmt.Fprintln(os.Stderr, "hdbench: -ingest only applies to -snapshot")
		os.Exit(2)
	}
	if *overload && *snapshot == "" {
		fmt.Fprintln(os.Stderr, "hdbench: -overload only applies to -snapshot")
		os.Exit(2)
	}
	if *clusterRow && *snapshot == "" {
		fmt.Fprintln(os.Stderr, "hdbench: -cluster only applies to -snapshot")
		os.Exit(2)
	}
	if *tiered && *snapshot == "" {
		fmt.Fprintln(os.Stderr, "hdbench: -tiered only applies to -snapshot")
		os.Exit(2)
	}
	if *sweepOut != "" && *sweep == "" {
		fmt.Fprintln(os.Stderr, "hdbench: -sweep-out requires -sweep")
		os.Exit(2)
	}
	if *sweep != "" {
		if *snapshot == "" {
			fmt.Fprintln(os.Stderr, "hdbench: -sweep only applies to -snapshot")
			os.Exit(2)
		}
		spec, err := bench.ParseSweep(*sweep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hdbench: %v\n", err)
			os.Exit(2)
		}
		cfg.Sweep = spec
	}
	if *snapshot != "" {
		if *exp != "" {
			fmt.Fprintln(os.Stderr, "hdbench: -snapshot and -exp are mutually exclusive")
			os.Exit(2)
		}
		snap, err := bench.RunSnapshot(cfg, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hdbench: snapshot: %v\n", err)
			os.Exit(1)
		}
		f, err := os.Create(*snapshot)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hdbench: %v\n", err)
			os.Exit(1)
		}
		werr := snap.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "hdbench: %v\n", werr)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *snapshot)
		// The frontier rows also print to stdout: the point of a sweep
		// is to read the curve, not to open a JSON file.
		if len(snap.Sweep) > 0 {
			fmt.Printf("\nrecall/latency frontier (%s, one built index, per-query overrides):\n", snap.Config.Sweep)
			fmt.Printf("  %-10s %-6s %8s %12s %8s %8s %12s %12s\n",
				"dataset", "param", "value", "query_us", "recall", "map", "candidates", "page_reads")
			for _, row := range snap.Sweep {
				fmt.Printf("  %-10s %-6s %8d %12.1f %8.4f %8.4f %12.1f %12.1f\n",
					row.Dataset, row.Param, row.Value, row.MeanQueryUS, row.Recall, row.MAP,
					row.CandidatesPerQuery, row.PageReadsPerQuery)
			}
		}
		// The frontier artifact records the first dataset's rows: one
		// artifact describes one built index, and the first dataset is
		// the one the serving smoke (make tune-smoke) builds.
		if *sweepOut != "" && len(snap.Sweep) > 0 {
			first := snap.Sweep[0].Dataset
			f := bench.Frontier(snap.Sweep, first, cfg.K)
			if err := slo.WriteFrontier(*sweepOut, f); err != nil {
				fmt.Fprintf(os.Stderr, "hdbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s (%d points, dataset %s)\n", *sweepOut, len(f.Points), first)
		}
		if len(snap.Ingest) > 0 {
			bench.PrintIngest(snap.Ingest)
		}
		if len(snap.Overload) > 0 {
			bench.PrintOverload(snap.Overload)
		}
		if len(snap.Cluster) > 0 {
			bench.PrintCluster(snap.Cluster)
		}
		if len(snap.Tiered) > 0 {
			bench.PrintTiered(snap.Tiered)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "hdbench: -exp required (or -list)")
		flag.Usage()
		os.Exit(2)
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = bench.IDs()
	}
	for _, id := range ids {
		fmt.Printf("\n================ %s ================\n", id)
		t0 := time.Now()
		if err := bench.Run(id, os.Stdout, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "hdbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n", id, time.Since(t0).Round(time.Millisecond))
	}
}
