package shard

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"github.com/hd-index/hdindex/internal/core"
	"github.com/hd-index/hdindex/internal/data"
)

// BenchmarkBuild measures the wall-clock win of partitioned
// construction: the same dataset built as one monolithic shard versus
// four concurrently built shards (the acceptance comparison; run with
// -benchtime to taste).
func BenchmarkBuild(b *testing.B) {
	ds := data.SIFTLike(8000, 3)
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			p := Params{
				Params: core.Params{Tau: 8, Omega: 8, M: 10, Alpha: 1024, Gamma: 256, Seed: 1},
				Shards: shards,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dir := filepath.Join(b.TempDir(), fmt.Sprintf("ix-%d", i))
				s, err := Build(dir, ds.Vectors, p)
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
			s, err := Build(filepath.Join(b.TempDir(), "ix"), ds.Vectors, Params{
				Params: core.Params{Tau: 8, Omega: 8, M: 10, Alpha: 1024, Gamma: 256, Seed: 1},
				Shards: shards,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Query(context.Background(), queries[i%len(queries)], 10, core.SearchOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
