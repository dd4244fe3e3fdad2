package core

import (
	"context"
	"path/filepath"
	"sync"
	"testing"

	"github.com/hd-index/hdindex/internal/data"
)

// Concurrent searches on one open index must be race-free and agree
// with sequential results (run under -race in CI).
func TestConcurrentSearches(t *testing.T) {
	ds := data.Generate(data.Config{N: 1500, Dim: 32, Clusters: 6, Lo: 0, Hi: 1, Seed: 91})
	queries := ds.PerturbedQueries(16, 0.01, 92)
	dir := filepath.Join(t.TempDir(), "ix")
	p := Params{Tau: 4, Omega: 8, M: 4, Alpha: 256, Gamma: 64, Parallel: true, Seed: 93}
	ix, err := Build(dir, ds.Vectors, p)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	want := make([][]Result, len(queries))
	for i, q := range queries {
		want[i], _, err = ix.Query(context.Background(), q, 10, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, len(queries))
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q []float32) {
			defer wg.Done()
			got, _, err := ix.Query(context.Background(), q, 10, SearchOptions{})
			if err != nil {
				errs[i] = err
				return
			}
			for j := range got {
				if got[j] != want[i][j] {
					errs[i] = errMismatch
					return
				}
			}
		}(i, q)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent result differs from sequential" }

// §4.4.1: the number of disk accesses per query is
// O(τ·(log_θ n + α/Ω + γ)). With the cache disabled, measured page
// reads must stay within a small constant of that bound.
func TestDiskAccessBound(t *testing.T) {
	ds := data.Generate(data.Config{N: 4000, Dim: 32, Clusters: 6, Lo: 0, Hi: 1, Seed: 94})
	queries := ds.PerturbedQueries(10, 0.01, 95)
	dir := filepath.Join(t.TempDir(), "ix")
	p := Params{Tau: 4, Omega: 8, M: 8, Alpha: 512, Gamma: 128, DisableCache: true, Seed: 96}
	ix, err := Build(dir, ds.Vectors, p)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	omega := ix.trees[0].LeafOrder()
	var worst uint64
	for _, q := range queries {
		ix.ResetIOStats()
		if _, _, err := ix.Query(context.Background(), q, 10, SearchOptions{}); err != nil {
			t.Fatal(err)
		}
		if r := ix.IOStats().Reads; r > worst {
			worst = r
		}
	}
	// Bound: per tree, tree height + leaf pages for alpha entries;
	// plus kappa <= tau*gamma vector fetches (each vector may span 2 pages
	// at worst for this geometry: 128 B vectors fit one page).
	bound := uint64(p.Tau*(8+p.Alpha/omega+2) + p.Tau*p.Gamma*2)
	if worst > bound {
		t.Errorf("page reads %d exceed the §4.4.1 bound %d (Ω=%d)", worst, bound, omega)
	}
	if worst == 0 {
		t.Error("cache-off query performed no physical reads")
	}
}

// Full pipeline through the file formats: generate → write fvecs → read
// back → build → query → write ivecs → read back, mimicking the CLI flow.
func TestFileFormatPipeline(t *testing.T) {
	tmp := t.TempDir()
	ds := data.SIFTLike(800, 97)
	queries := ds.PerturbedQueries(5, 0.01, 98)

	dataPath := filepath.Join(tmp, "d.fvecs")
	if err := data.WriteFvecs(dataPath, ds.Vectors); err != nil {
		t.Fatal(err)
	}
	vectors, err := data.ReadFvecs(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(vectors) != 800 {
		t.Fatalf("read %d vectors", len(vectors))
	}

	ix, err := Build(filepath.Join(tmp, "ix"), vectors, Params{
		Tau: 8, Omega: 8, M: 5, Alpha: 256, Gamma: 64, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	results := make([][]uint64, len(queries))
	for qi, q := range queries {
		res, _, err := ix.Query(context.Background(), q, 10, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]uint64, len(res))
		for i, r := range res {
			ids[i] = r.ID
		}
		results[qi] = ids
	}
	outPath := filepath.Join(tmp, "r.ivecs")
	if err := data.WriteIvecs(outPath, results); err != nil {
		t.Fatal(err)
	}
	back, err := data.ReadIvecs(outPath)
	if err != nil {
		t.Fatal(err)
	}
	for qi := range results {
		for i := range results[qi] {
			if back[qi][i] != results[qi][i] {
				t.Fatal("ivecs round trip mismatch")
			}
		}
	}
}
