package hdindex_test

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	hdindex "github.com/hd-index/hdindex"
	"github.com/hd-index/hdindex/internal/data"
)

// Example demonstrates the core workflow: build an index over a dataset,
// search it, and reopen it from disk.
func Example() {
	ds := data.SIFTLike(2000, 1) // 2000 synthetic 128-d SIFT-like vectors
	dir := filepath.Join(os.TempDir(), "hdindex-example")
	defer os.RemoveAll(dir)

	idx, err := hdindex.Build(dir, ds.Vectors, hdindex.Options{
		Omega: 8, Alpha: 512, Gamma: 128, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer idx.Close()

	query := ds.Vectors[42] // search for a known vector
	resp, err := idx.Query(context.Background(), query, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d vectors of %d dims\n", idx.Count(), idx.Dim())
	fmt.Printf("got %d neighbours; nearest is id %d at distance %.0f\n",
		len(resp.Results), resp.Results[0].ID, resp.Results[0].Dist)
	// Output:
	// indexed 2000 vectors of 128 dims
	// got 3 neighbours; nearest is id 42 at distance 0
}

// ExampleIndex_Query demonstrates per-query tuning: the same built
// index serves different recall/latency operating points by overriding
// the filter cascade per request — no rebuild between them.
func ExampleIndex_Query() {
	ds := data.SIFTLike(2000, 1)
	dir := filepath.Join(os.TempDir(), "hdindex-example-query")
	defer os.RemoveAll(dir)

	idx, err := hdindex.Build(dir, ds.Vectors, hdindex.Options{
		Omega: 8, Alpha: 512, Gamma: 128, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer idx.Close()

	ctx := context.Background()
	query := ds.Vectors[42]

	// A cheap query: small cascade, little I/O.
	cheap, err := idx.Query(ctx, query, 3,
		hdindex.WithAlpha(64), hdindex.WithStats())
	if err != nil {
		log.Fatal(err)
	}
	// A thorough query on the SAME index: the built defaults, Ptolemaic
	// filtering on top.
	thorough, err := idx.Query(ctx, query, 3,
		hdindex.WithPtolemaic(true), hdindex.WithStats())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cheap:    alpha=%d, nearest id %d\n", cheap.Stats.Alpha, cheap.Results[0].ID)
	fmt.Printf("thorough: alpha=%d ptolemaic=%v, nearest id %d\n",
		thorough.Stats.Alpha, thorough.Stats.Ptolemaic, thorough.Results[0].ID)
	fmt.Printf("thorough fetched more leaf entries: %v\n",
		thorough.Stats.TreeEntries > cheap.Stats.TreeEntries)
	// Output:
	// cheap:    alpha=64, nearest id 42
	// thorough: alpha=512 ptolemaic=true, nearest id 42
	// thorough fetched more leaf entries: true
}

// Example_updates demonstrates §3.6: inserting and deleting objects in a
// built index.
func Example_updates() {
	ds := data.SIFTLike(1000, 2)
	dir := filepath.Join(os.TempDir(), "hdindex-example-updates")
	defer os.RemoveAll(dir)

	idx, err := hdindex.Build(dir, ds.Vectors, hdindex.Options{
		Omega: 8, Alpha: 256, Gamma: 64, Seed: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer idx.Close()

	id, err := idx.Insert(ds.Vectors[0]) // duplicate of object 0
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inserted as id %d\n", id)

	if err := idx.Delete(0); err != nil { // hide the original
		log.Fatal(err)
	}
	resp, err := idx.Query(context.Background(), ds.Vectors[0], 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("nearest after delete: id %d at distance %.0f\n",
		resp.Results[0].ID, resp.Results[0].Dist)
	// Output:
	// inserted as id 1000
	// nearest after delete: id 1000 at distance 0
}
