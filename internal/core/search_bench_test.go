package core

import (
	"context"
	"testing"
)

// BenchmarkSearch measures the single-query hot path: per-op allocations
// here are what the sync.Pool scratch reuse is meant to cut.
func BenchmarkSearch(b *testing.B) {
	p := Params{Tau: 4, Omega: 8, M: 8, Alpha: 512, Gamma: 128, Seed: 1}
	ix, _, queries := buildSmall(b, 4000, p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.Query(context.Background(), queries[i%len(queries)], 10, SearchOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchBatch measures the batch fan-out path under the worker
// pool.
func BenchmarkSearchBatch(b *testing.B) {
	p := Params{Tau: 4, Omega: 8, M: 8, Alpha: 512, Gamma: 128, Seed: 1}
	ix, ds, _ := buildSmall(b, 4000, p)
	queries := ds.PerturbedQueries(64, 0.01, 99)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.QueryBatch(context.Background(), queries, 10, SearchOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
