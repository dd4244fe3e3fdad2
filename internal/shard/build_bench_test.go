package shard_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"github.com/hd-index/hdindex"
	"github.com/hd-index/hdindex/internal/data"
)

// benchOpts is the paper's SIFT shape at a benchmark-sized cascade.
func benchOpts(shards int) hdindex.Options {
	return hdindex.Options{Tau: 8, Omega: 8, M: 10, Alpha: 1024, Gamma: 256, Seed: 1, Shards: shards}
}

// BenchmarkBuild measures the wall-clock win of partitioned
// construction: the same dataset built as one monolithic shard versus
// four concurrently built shards (the acceptance comparison; run with
// -benchtime to taste).
func BenchmarkBuild(b *testing.B) {
	ds := data.SIFTLike(8000, 3)
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dir := filepath.Join(b.TempDir(), fmt.Sprintf("ix-%d", i))
				s, err := hdindex.Build(dir, ds.Vectors, benchOpts(shards))
				if err != nil {
					b.Fatal(err)
				}
				s.Close()
			}
		})
	}
}

// BenchmarkSearch compares scatter-gather query latency across layouts.
func BenchmarkSearch(b *testing.B) {
	ds := data.SIFTLike(8000, 3)
	queries := ds.PerturbedQueries(64, 0.01, 4)
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s, err := hdindex.Build(filepath.Join(b.TempDir(), "ix"), ds.Vectors, benchOpts(shards))
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Query(ctx, queries[i%len(queries)], 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
