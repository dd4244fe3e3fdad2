package core

import (
	"context"
	"path/filepath"
	"testing"

	"github.com/hd-index/hdindex/internal/data"
)

func TestSearchBatchMatchesSequential(t *testing.T) {
	ds := data.Generate(data.Config{N: 1200, Dim: 32, Clusters: 5, Lo: 0, Hi: 1, Seed: 101})
	queries := ds.PerturbedQueries(17, 0.01, 102)
	dir := filepath.Join(t.TempDir(), "ix")
	ix, err := Build(dir, ds.Vectors, Params{Tau: 4, Omega: 8, M: 4, Alpha: 256, Gamma: 64, Seed: 103})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	batch, _, err := ix.QueryBatch(context.Background(), queries, 10, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(queries) {
		t.Fatalf("batch returned %d result sets", len(batch))
	}
	for qi, q := range queries {
		seq, _, err := ix.Query(context.Background(), q, 10, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range seq {
			if batch[qi][i] != seq[i] {
				t.Fatalf("query %d result %d: batch %+v vs sequential %+v",
					qi, i, batch[qi][i], seq[i])
			}
		}
	}
}

func TestSearchBatchEmpty(t *testing.T) {
	ds := data.Generate(data.Config{N: 200, Dim: 16, Lo: 0, Hi: 1, Seed: 104})
	dir := filepath.Join(t.TempDir(), "ix")
	ix, err := Build(dir, ds.Vectors, Params{Tau: 2, Omega: 8, M: 2, Alpha: 64, Gamma: 16, Seed: 105})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	out, _, err := ix.QueryBatch(context.Background(), nil, 5, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatal("empty batch must return empty results")
	}
	// A bad query inside a batch surfaces as an error.
	if _, _, err := ix.QueryBatch(context.Background(), [][]float32{{1}}, 5, SearchOptions{}); err == nil {
		t.Fatal("bad query in batch must fail")
	}
}
