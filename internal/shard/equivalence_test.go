package shard

import (
	"context"
	"path/filepath"
	"testing"

	"github.com/hd-index/hdindex/internal/core"
	"github.com/hd-index/hdindex/internal/data"
)

// requireSameResults fails unless both result lists agree rank by rank
// on ids and distances.
func requireSameResults(t *testing.T, label string, got, want []core.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
			t.Fatalf("%s rank %d: got (%d, %g), want (%d, %g)",
				label, i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
		}
	}
}

// A 1-shard layout is the monolithic index plus a manifest: same seed,
// same stripe (round-robin over 1 shard is the identity), same files —
// so every query must return bit-identical results.
func TestOneShardMatchesMonolithic(t *testing.T) {
	ds := data.Generate(data.Config{Name: "equiv", N: 1500, Dim: 32, Clusters: 5, Lo: 0, Hi: 1, Seed: 21})
	queries := ds.PerturbedQueries(15, 0.02, 22)
	p := core.Params{Tau: 4, Omega: 8, M: 5, Alpha: 512, Gamma: 128, Seed: 9}

	mono, err := core.Build(filepath.Join(t.TempDir(), "mono"), ds.Vectors, p)
	if err != nil {
		t.Fatal(err)
	}
	defer mono.Close()
	one, err := Build(filepath.Join(t.TempDir(), "one"), ds.Vectors, Params{Params: p, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()

	for qi, q := range queries {
		want, wantSt, err := mono.Query(context.Background(), q, 10, core.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, gotSt, err := one.Query(context.Background(), q, 10, core.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		requireSameResults(t, "query", got, want)
		if gotSt.Candidates != wantSt.Candidates || gotSt.TreeEntries != wantSt.TreeEntries {
			t.Fatalf("query %d: stats diverge: %+v vs %+v", qi, gotSt, wantSt)
		}
	}
}

// With exhaustive filter parameters (alpha = beta = gamma = n, so no
// candidate is ever pruned) every layout computes the exact kNN — which
// makes the scatter-gather merge directly checkable: a 4-shard index
// must return the same ids, in the same order, as a 1-shard index.
func TestScatterGatherExhaustiveEquivalence(t *testing.T) {
	const n, k = 1200, 10
	ds := data.Generate(data.Config{Name: "equiv4", N: n, Dim: 16, Clusters: 4, Lo: 0, Hi: 1, Seed: 31})
	queries := ds.PerturbedQueries(15, 0.05, 32)
	p := core.Params{Tau: 4, Omega: 8, M: 4, Alpha: n, Beta: n, Gamma: n, Seed: 5}

	one, err := Build(filepath.Join(t.TempDir(), "one"), ds.Vectors, Params{Params: p, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	four, err := Build(filepath.Join(t.TempDir(), "four"), ds.Vectors, Params{Params: p, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer four.Close()

	truthIDs, _ := data.GroundTruth(ds.Vectors, queries, k)
	for qi, q := range queries {
		want, _, err := one.Query(context.Background(), q, k, core.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := four.Query(context.Background(), q, k, core.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		requireSameResults(t, "query", got, want)
		// Both must equal brute-force ground truth: exhaustive params
		// mean "approximate" search degenerates to exact.
		for i, id := range truthIDs[qi] {
			if got[i].ID != id {
				t.Fatalf("query %d rank %d: id %d, want ground-truth %d", qi, i, got[i].ID, id)
			}
		}
	}
}
