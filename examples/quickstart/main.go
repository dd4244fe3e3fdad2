// Quickstart: build an HD-Index over a synthetic SIFT-like dataset and
// answer a few kANN queries with the public API.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	hdindex "github.com/hd-index/hdindex"
	"github.com/hd-index/hdindex/internal/data"
)

func main() {
	// 10,000 SIFT-like 128-d vectors (integer values in [0,255]).
	ds := data.SIFTLike(10000, 1)
	queries := ds.PerturbedQueries(3, 0.01, 2)

	dir := filepath.Join(os.TempDir(), "hdindex-quickstart")
	defer os.RemoveAll(dir)

	// Zero options = the paper's recommended parameters (m=10 references
	// chosen by SSS, tau=8 trees, alpha=4096, triangular filter).
	idx, err := hdindex.Build(dir, ds.Vectors, hdindex.Options{Omega: 8, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	defer idx.Close()
	fmt.Printf("built HD-Index over %d vectors (%d dims), %.1f MB on disk\n",
		idx.Count(), idx.Dim(), float64(idx.SizeOnDisk())/(1<<20))

	ctx := context.Background()
	for qi, q := range queries {
		resp, err := idx.Query(ctx, q, 5, hdindex.WithStats())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nquery %d: 5 nearest neighbours (refined %d candidates, %d page reads)\n",
			qi, resp.Stats.Candidates, resp.Stats.PageReads)
		for rank, r := range resp.Results {
			fmt.Printf("  #%d id=%-6d dist=%.2f\n", rank+1, r.ID, r.Dist)
		}
	}

	// Indexes are persistent: reopen and query again.
	if err := idx.Close(); err != nil {
		log.Fatal(err)
	}
	reopened, err := hdindex.Open(dir, hdindex.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer reopened.Close()
	resp, err := reopened.Query(ctx, queries[0], 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreopened index answers the same query: nearest id=%d dist=%.2f\n",
		resp.Results[0].ID, resp.Results[0].Dist)
}
