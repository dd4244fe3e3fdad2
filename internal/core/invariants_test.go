package core

import (
	"context"
	"math"
	"path/filepath"
	"testing"
	"testing/quick"

	"github.com/hd-index/hdindex/internal/data"
	"github.com/hd-index/hdindex/internal/vecmath"
)

// Property (testing/quick over random queries): the candidate-set size κ
// respects γ ≤ κ ≤ τ·γ (§4.2) whenever every tree yields γ survivors,
// and the returned distances are exact, sorted, and lower-bounded by the
// true nearest distance.
func TestQuickQueryInvariants(t *testing.T) {
	ds := data.Generate(data.Config{N: 1500, Dim: 32, Clusters: 5, Lo: 0, Hi: 1, Seed: 111})
	dir := filepath.Join(t.TempDir(), "ix")
	p := Params{Tau: 4, Omega: 8, M: 4, Alpha: 256, Gamma: 64, Seed: 112}
	ix, err := Build(dir, ds.Vectors, p)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	// Exact NN distances for comparison.
	trueNN := func(q []float32) float64 {
		best := math.Inf(1)
		for _, v := range ds.Vectors {
			if d := vecmath.Dist(q, v); d < best {
				best = d
			}
		}
		return best
	}

	f := func(seed int64) bool {
		qs := data.Generate(data.Config{N: 1, Dim: 32, Clusters: 1, Lo: 0, Hi: 1, Seed: seed})
		q := qs.Vectors[0]
		res, stats, err := ix.Query(context.Background(), q, 10, SearchOptions{})
		if err != nil {
			return false
		}
		if stats.Candidates < p.Gamma || stats.Candidates > p.Tau*p.Gamma {
			return false
		}
		// Sorted ascending, and the best result cannot beat the true NN.
		for i := 1; i < len(res); i++ {
			if res[i].Dist < res[i-1].Dist {
				return false
			}
		}
		if len(res) > 0 && res[0].Dist < trueNN(q)-1e-6 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Searching for every indexed point itself must find it at distance 0
// with high probability: a point's own Hilbert key is always the seek
// position, so it appears among its own α candidates in every tree.
func TestSelfQueriesAreExact(t *testing.T) {
	ds := data.Generate(data.Config{N: 800, Dim: 16, Clusters: 4, Lo: 0, Hi: 1, Seed: 113})
	dir := filepath.Join(t.TempDir(), "ix")
	ix, err := Build(dir, ds.Vectors, Params{Tau: 2, Omega: 8, M: 3, Alpha: 64, Gamma: 16, Seed: 114})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	misses := 0
	for i := 0; i < 100; i++ {
		id := uint64(i * 8)
		res, _, err := ix.Query(context.Background(), ds.Vectors[id], 1, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Ties at distance 0 (duplicate points) also count as hits.
		if len(res) == 0 || res[0].Dist > 1e-6 {
			misses++
		}
	}
	if misses > 0 {
		t.Errorf("%d/100 self-queries failed to find a zero-distance object", misses)
	}
}
