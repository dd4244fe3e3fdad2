// Command hdbench regenerates the paper's tables and figures.
//
// Usage:
//
//	hdbench -exp fig8 -scale 1 -queries 50
//	hdbench -exp all
//	hdbench -sweep alpha=512,1024,2048 -scale 10 -sweep-out frontier.json
//	hdbench -list
//
// Each experiment prints the same rows/series the corresponding table or
// figure of the paper reports; -list prints the experiment ids with the
// table or figure each reproduces (README.md, "Benchmarks"). -sweep
// instead walks a per-query knob over one built index and prints the
// recall/latency frontier; -sweep-out writes it as the artifact
// `hdserve -slo -frontier` and `hdtool tune` load.
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
		exp      = flag.String("exp", "", "experiment id (see -list), or 'all'")
		list     = flag.Bool("list", false, "list available experiments")
		scale    = flag.Float64("scale", 1.0, "dataset scale multiplier")
		queries  = flag.Int("queries", 50, "queries per dataset")
		k        = flag.Int("k", 100, "neighbours for MAP@k experiments")
		workdir  = flag.String("workdir", "", "scratch directory for on-disk indexes")
		seed     = flag.Int64("seed", 42, "random seed")
		sweep    = flag.String("sweep", "", "instead of an experiment, walk a per-query knob over one built SIFT10K index and print the recall/latency frontier (alpha=a1,a2,... or gamma=g1,g2,...)")
		sweepOut = flag.String("sweep-out", "", "also write the sweep as a frontier artifact (JSON) the server's SLO tuner loads (-frontier); requires -sweep")
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
	cfg := bench.Config{Scale: *scale, Queries: *queries, K: *k, WorkDir: *workdir, Seed: *seed}

	if *sweep != "" {
		if *exp != "" {
			usageError("-sweep and -exp are mutually exclusive")
		}
		spec, err := bench.ParseSweep(*sweep)
		if err != nil {
			usageError(err.Error())
		}
		f, err := bench.RunSweep(cfg, spec)
		if err != nil {
			fail(fmt.Errorf("sweep: %w", err))
		}
		fmt.Printf("recall/latency frontier (%s, k=%d, %s sweep over one built index, per-query overrides):\n", f.Dataset, f.K, spec.Param)
		fmt.Printf("  %8s %8s %12s %12s %8s %8s %12s\n",
			"alpha", "gamma", "query_us", "p99_us", "recall", "map", "candidates")
		for _, p := range f.Points {
			fmt.Printf("  %8d %8d %12.1f %12.1f %8.4f %8.4f %12.1f\n",
				p.Alpha, p.Gamma, p.MeanQueryUS, p.P99QueryUS, p.Recall, p.MAP, p.CandidatesPerQuery)
		}
		if *sweepOut != "" {
			if err := slo.WriteFrontier(*sweepOut, f); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s (%d points, dataset %s)\n", *sweepOut, len(f.Points), f.Dataset)
		}
		return
	}
	if *sweepOut != "" {
		usageError("-sweep-out requires -sweep")
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "hdbench: -exp required (or -list, or -sweep)")
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
			fail(fmt.Errorf("%s: %w", id, err))
		}
		fmt.Printf("[%s completed in %v]\n", id, time.Since(t0).Round(time.Millisecond))
	}
}

func usageError(msg string) {
	fmt.Fprintf(os.Stderr, "hdbench: %s\n", msg)
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "hdbench: %v\n", err)
	os.Exit(1)
}
