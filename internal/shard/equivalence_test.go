package shard_test

import (
	"path/filepath"
	"testing"

	"github.com/hd-index/hdindex"
	"github.com/hd-index/hdindex/internal/core"
	"github.com/hd-index/hdindex/internal/data"
)

// requireSameResults fails unless both result lists agree rank by rank
// on ids and distances.
func requireSameResults(t *testing.T, label string, got, want []hdindex.Result) {
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

	mono, err := core.Build(filepath.Join(t.TempDir(), "mono"), ds.Vectors,
		core.Params{Tau: 4, Omega: 8, M: 5, Alpha: 512, Gamma: 128, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer mono.Close()
	one, _ := build(t, ds.Vectors, hdindex.Options{Tau: 4, Omega: 8, M: 5, Alpha: 512, Gamma: 128, Seed: 9, Shards: 1})
	defer one.Close()

	for qi, q := range queries {
		want, wantSt, err := mono.Query(ctx, q, 10, core.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := one.Query(ctx, q, 10, hdindex.WithStats())
		if err != nil {
			t.Fatal(err)
		}
		requireSameResults(t, "query", got.Results, want)
		if gotSt := got.Stats; gotSt.Candidates != wantSt.Candidates || gotSt.TreeEntries != wantSt.TreeEntries {
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
	opts := hdindex.Options{Tau: 4, Omega: 8, M: 4, Alpha: n, Beta: n, Gamma: n, Seed: 5, Shards: 1}

	one, _ := build(t, ds.Vectors, opts)
	defer one.Close()
	opts.Shards = 4
	four, _ := build(t, ds.Vectors, opts)
	defer four.Close()

	truthIDs, _ := data.GroundTruth(ds.Vectors, queries, k)
	for qi, q := range queries {
		want, err := one.Query(ctx, q, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := four.Query(ctx, q, k)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResults(t, "query", got.Results, want.Results)
		// Both must equal brute-force ground truth: exhaustive params
		// mean "approximate" search degenerates to exact.
		for i, id := range truthIDs[qi] {
			if got.Results[i].ID != id {
				t.Fatalf("query %d rank %d: id %d, want ground-truth %d", qi, i, got.Results[i].ID, id)
			}
		}
	}
}
