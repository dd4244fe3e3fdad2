package shard_test

import (
	"errors"
	"testing"

	"github.com/hd-index/hdindex"
	"github.com/hd-index/hdindex/internal/data"
)

// On a multi-shard layout the aggregated stats must echo the effective
// cascade once (not summed across shards).
func TestShardedQueryEchoesCascadeOnce(t *testing.T) {
	ds := data.Generate(data.Config{Name: "qopt", N: 1600, Dim: 32, Clusters: 5, Lo: 0, Hi: 1, Seed: 23})
	four, _ := build(t, ds.Vectors, hdindex.Options{Tau: 4, Omega: 8, M: 5, Alpha: 256, Gamma: 64, Seed: 9, Shards: 4})
	defer four.Close()

	for qi, q := range ds.PerturbedQueries(10, 0.02, 24) {
		resp, err := four.Query(ctx, q, 10, hdindex.WithStats())
		if err != nil {
			t.Fatal(err)
		}
		if st := resp.Stats; st.Alpha != 256 || st.Gamma != 64 || st.Ptolemaic {
			t.Fatalf("query %d: aggregated stats echo %+v, want the built cascade once", qi, st)
		}
	}
}

// A per-query override applies to every shard: γ supersets per tree per
// shard make the summed candidate count monotone in γ, and the batch
// path must agree with the single-query path.
func TestShardedQueryOverrides(t *testing.T) {
	ds := data.Generate(data.Config{Name: "qovr", N: 1600, Dim: 32, Clusters: 5, Lo: 0, Hi: 1, Seed: 25})
	queries := ds.PerturbedQueries(6, 0.02, 26)
	four, _ := build(t, ds.Vectors, hdindex.Options{Tau: 4, Omega: 8, M: 5, Alpha: 256, Gamma: 64, Seed: 9, Shards: 4})
	defer four.Close()

	prev := -1
	for _, gamma := range []int{16, 32, 64} {
		o := []hdindex.QueryOption{hdindex.WithGamma(gamma), hdindex.WithStats()}
		var total int
		for _, q := range queries {
			resp, err := four.Query(ctx, q, 10, o...)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Stats.Gamma != gamma {
				t.Fatalf("gamma=%d: stats echo %+v", gamma, resp.Stats)
			}
			total += resp.Stats.Candidates
		}
		if total < prev {
			t.Fatalf("gamma=%d: %d candidates < previous %d", gamma, total, prev)
		}
		prev = total

		batch, err := four.QueryBatch(ctx, queries, 10, o...)
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			want, err := four.Query(ctx, q, 10, o...)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResults(t, "batch query", batch[qi].Results, want.Results)
			if batch[qi].Stats.Candidates != want.Stats.Candidates {
				t.Fatalf("gamma=%d query %d: batch candidates %d, single %d",
					gamma, qi, batch[qi].Stats.Candidates, want.Stats.Candidates)
			}
		}
	}
}

// Typed errors must cross the shard layer intact.
func TestShardedTypedErrors(t *testing.T) {
	ds := data.Generate(data.Config{Name: "qerr", N: 800, Dim: 32, Clusters: 4, Lo: 0, Hi: 1, Seed: 27})
	four, _ := build(t, ds.Vectors, hdindex.Options{Tau: 4, Omega: 8, M: 4, Alpha: 128, Gamma: 32, Seed: 3, Shards: 4})
	defer four.Close()

	if _, err := four.Query(ctx, make([]float32, 5), 10); !errors.Is(err, hdindex.ErrDimMismatch) {
		t.Fatalf("query dim err = %v", err)
	}
	if _, err := four.Insert(make([]float32, 5)); !errors.Is(err, hdindex.ErrDimMismatch) {
		t.Fatalf("insert dim err = %v", err)
	}
	if _, err := four.Query(ctx, ds.Vectors[0], 10, hdindex.WithAlpha(8), hdindex.WithGamma(16)); !errors.Is(err, hdindex.ErrBadOptions) {
		t.Fatalf("bad options err = %v", err)
	}
	// Batch validation fails fast, before any fan-out.
	if _, err := four.QueryBatch(ctx, [][]float32{ds.Vectors[0]}, 10, hdindex.WithGamma(4)); !errors.Is(err, hdindex.ErrBadOptions) {
		t.Fatalf("batch bad options err = %v", err)
	}
	if _, err := four.QueryBatch(ctx, [][]float32{ds.Vectors[0], make([]float32, 3)}, 10); !errors.Is(err, hdindex.ErrDimMismatch) {
		t.Fatalf("batch dim err = %v", err)
	}
}

// The κ cap is a per-query budget: on an N-shard layout it is split
// across the scatter, so the aggregated refinement work respects the
// caller's ceiling instead of multiplying it by N.
func TestShardedMaxCandidatesIsGlobalBudget(t *testing.T) {
	ds := data.Generate(data.Config{Name: "qcap", N: 2000, Dim: 32, Clusters: 5, Lo: 0, Hi: 1, Seed: 29})
	four, _ := build(t, ds.Vectors, hdindex.Options{Tau: 4, Omega: 8, M: 5, Alpha: 512, Gamma: 128, Seed: 9, Shards: 4})
	defer four.Close()

	for _, q := range ds.PerturbedQueries(5, 0.02, 30) {
		unbounded, err := four.Query(ctx, q, 10, hdindex.WithStats())
		if err != nil {
			t.Fatal(err)
		}
		budget := unbounded.Stats.Candidates / 2
		if budget < 40 {
			t.Skip("dataset too small for a meaningful cap")
		}
		capped, err := four.Query(ctx, q, 10, hdindex.WithMaxCandidates(budget), hdindex.WithStats())
		if err != nil {
			t.Fatal(err)
		}
		if capped.Stats.Candidates > budget {
			t.Fatalf("budget %d but %d candidates refined across shards", budget, capped.Stats.Candidates)
		}
		if len(capped.Results) != 10 {
			t.Fatalf("capped query returned %d results", len(capped.Results))
		}
	}
	// A budget below k is rejected, as on a single shard.
	if _, err := four.Query(ctx, ds.Vectors[0], 10, hdindex.WithMaxCandidates(5)); !errors.Is(err, hdindex.ErrBadOptions) {
		t.Fatalf("cap<k err = %v", err)
	}
}
