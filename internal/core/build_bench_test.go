package core

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/hd-index/hdindex/internal/pager"
	"github.com/hd-index/hdindex/internal/radix"
	"github.com/hd-index/hdindex/internal/rdbtree"
)

func benchVectors(n, dim int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	vs := make([][]float32, n)
	flat := make([]float32, n*dim)
	for i := range vs {
		vs[i] = flat[i*dim : (i+1)*dim]
		for d := range vs[i] {
			vs[i][d] = rng.Float32() * 255
		}
	}
	return vs
}

// BenchmarkBuild measures construction end to end and per phase; the
// sub-benchmarks isolate each stage of the pipeline the flat build path
// optimises, so a regression names its phase in the CI artifacts.
func BenchmarkBuild(b *testing.B) {
	const (
		n    = 2000
		dim  = 64
		tau  = 8
		eta  = dim / tau
		m    = 10
		om   = 8
		seed = 42
	)
	vectors := benchVectors(n, dim, seed)
	params := Params{Tau: tau, Omega: om, M: m, Seed: seed}

	b.Run("full", func(b *testing.B) {
		dir := b.TempDir()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix, err := Build(filepath.Join(dir, "ix"), vectors, params)
			if err != nil {
				b.Fatal(err)
			}
			ix.Close()
		}
	})

	// Reference set for the phase benchmarks: built once, outside the
	// timed regions.
	refIx, err := Build(b.TempDir(), vectors, params)
	if err != nil {
		b.Fatal(err)
	}
	defer refIx.Close()
	refs := refIx.refs
	rdist, err := computeRefDists(context.Background(), vectors, refs)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("refdists", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := computeRefDists(context.Background(), vectors, refs); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := refIx.encodeKeys(context.Background(), 0, vectors); err != nil {
				b.Fatal(err)
			}
		}
	})

	keys, err := refIx.encodeKeys(context.Background(), 0, vectors)
	if err != nil {
		b.Fatal(err)
	}
	kl := refIx.treeConfig().StoredKeyLen()

	b.Run("sort", func(b *testing.B) {
		perm := make([]uint32, n)
		scratch := make([]uint32, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range perm {
				perm[j] = uint32(j)
			}
			radix.SortWithScratch(keys, kl, perm, scratch)
		}
	})

	perm := make([]uint32, n)
	for j := range perm {
		perm[j] = uint32(j)
	}
	radix.Sort(keys, kl, perm)

	b.Run("bulkload", func(b *testing.B) {
		dir := b.TempDir()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pgr, err := pager.Open(filepath.Join(dir, "t.pg"), pager.Options{Create: true, PageSize: 4096, PoolPages: 256})
			if err != nil {
				b.Fatal(err)
			}
			tree, err := rdbtree.Create(pgr, rdbtree.Config{Eta: eta, Omega: om, M: m})
			if err != nil {
				b.Fatal(err)
			}
			if err := tree.BulkLoadArena(keys, perm, nil, rdist, rdbtree.Scale{}); err != nil {
				b.Fatal(err)
			}
			if err := tree.Flush(); err != nil {
				b.Fatal(err)
			}
			pgr.Close()
		}
	})
}

// BenchmarkBuildSeedPath is the seed implementation of tree
// construction — per-record Encode allocations, Record structs, and a
// comparison sort — kept as the yardstick the flat arena path is
// measured against.
func BenchmarkBuildSeedPath(b *testing.B) {
	const (
		n   = 2000
		dim = 64
		tau = 8
		eta = dim / tau
		m   = 10
		om  = 8
	)
	vectors := benchVectors(n, dim, 42)
	refIx, err := Build(b.TempDir(), vectors, Params{Tau: tau, Omega: om, M: m, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	defer refIx.Close()
	rdist, err := computeRefDists(context.Background(), vectors, refIx.refs)
	if err != nil {
		b.Fatal(err)
	}
	q := refIx.quants[0]
	curve := refIx.curves[0]

	b.Run("encode+sort", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			records := make([]rdbtree.Record, n)
			coords := make([]uint32, eta)
			for id := 0; id < n; id++ {
				q.Coords(coords, vectors[id][:eta])
				records[id] = rdbtree.Record{
					Key:      curve.Encode(nil, coords),
					ID:       uint64(id),
					RefDists: rdist[id*m : (id+1)*m],
				}
			}
			sortRecords(records, refIx.treeConfig().StoredKeyLen())
		}
	})
}
