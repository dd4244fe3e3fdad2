package hdindex

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/hd-index/hdindex/internal/core"
	"github.com/hd-index/hdindex/internal/data"
)

// buildLayout builds the same dataset under one of the facade's three
// on-disk layouts: bare (Shards 0), 1-shard manifest, 4-shard manifest.
func buildLayout(t *testing.T, shards int) (*Index, [][]float32) {
	t.Helper()
	ds := data.Generate(data.Config{Name: "q", N: 1600, Dim: 32, Clusters: 6, Lo: 0, Hi: 1, Seed: 33})
	queries := ds.PerturbedQueries(8, 0.02, 34)
	idx, err := Build(filepath.Join(t.TempDir(), "ix"), ds.Vectors,
		Options{Tau: 4, Omega: 8, M: 5, Alpha: 256, Gamma: 64, Seed: 3, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { idx.Close() })
	return idx, queries
}

func requireBitIdentical(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			t.Fatalf("%s rank %d: got (%d, %v), want (%d, %v)",
				label, i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
		}
	}
}

// QueryBatch must answer each query bit-identically to Query on every
// layout the facade can write, and stats are returned only on request.
func TestQueryBatchMatchesQuery(t *testing.T) {
	for _, shards := range []int{0, 1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			idx, queries := buildLayout(t, shards)
			ctx := context.Background()
			batch, err := idx.QueryBatch(ctx, queries, 10)
			if err != nil {
				t.Fatal(err)
			}
			if len(batch) != len(queries) {
				t.Fatalf("QueryBatch returned %d responses", len(batch))
			}
			for qi, q := range queries {
				resp, err := idx.Query(ctx, q, 10, WithStats())
				if err != nil {
					t.Fatal(err)
				}
				if resp.Stats == nil || resp.Stats.Candidates < 1 {
					t.Fatalf("query %d: stats not populated: %+v", qi, resp.Stats)
				}
				requireBitIdentical(t, "QueryBatch", batch[qi].Results, resp.Results)
				if batch[qi].Stats != nil {
					t.Fatal("QueryBatch without WithStats must not return stats")
				}
			}
		})
	}
}

// Per-query overrides change the work done — on the same built index,
// with no rebuild — and the stats echo the cascade actually run.
func TestQueryOverridesOnEveryLayout(t *testing.T) {
	for _, shards := range []int{0, 1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			idx, queries := buildLayout(t, shards)
			ctx := context.Background()
			prev := -1
			for _, gamma := range []int{16, 32, 64} {
				var total int
				for _, q := range queries {
					resp, err := idx.Query(ctx, q, 10, WithGamma(gamma), WithStats())
					if err != nil {
						t.Fatal(err)
					}
					if resp.Stats.Gamma != gamma {
						t.Fatalf("gamma=%d: stats echo %+v", gamma, resp.Stats)
					}
					total += resp.Stats.Candidates
				}
				if total < prev {
					t.Fatalf("gamma=%d: candidates %d < previous %d — override not applied", gamma, total, prev)
				}
				prev = total
			}

			// WithAlpha moves the fetched tree entries.
			low, err := idx.Query(ctx, queries[0], 10, WithAlpha(32), WithStats())
			if err != nil {
				t.Fatal(err)
			}
			high, err := idx.Query(ctx, queries[0], 10, WithAlpha(256), WithStats())
			if err != nil {
				t.Fatal(err)
			}
			if low.Stats.TreeEntries >= high.Stats.TreeEntries {
				t.Fatalf("alpha 32 fetched %d entries, alpha 256 fetched %d",
					low.Stats.TreeEntries, high.Stats.TreeEntries)
			}
			if low.Stats.Alpha != 32 || high.Stats.Alpha != 256 {
				t.Fatalf("alpha echo: %d / %d", low.Stats.Alpha, high.Stats.Alpha)
			}

			// WithPtolemaic(true) on an index built without it.
			pto, err := idx.Query(ctx, queries[0], 10, WithPtolemaic(true), WithStats())
			if err != nil {
				t.Fatal(err)
			}
			if !pto.Stats.Ptolemaic {
				t.Fatal("WithPtolemaic(true) not echoed")
			}

			// QueryBatch applies one option set to every query.
			batch, err := idx.QueryBatch(ctx, queries, 10, WithGamma(32), WithStats())
			if err != nil {
				t.Fatal(err)
			}
			for qi := range queries {
				if batch[qi].Stats == nil || batch[qi].Stats.Gamma != 32 {
					t.Fatalf("batch query %d: stats %+v", qi, batch[qi].Stats)
				}
			}
		})
	}
}

// The typed errors must surface through the facade on every layout.
func TestQueryTypedErrors(t *testing.T) {
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			idx, queries := buildLayout(t, shards)
			ctx := context.Background()

			if _, err := idx.Query(ctx, make([]float32, 5), 10); !errors.Is(err, ErrDimMismatch) {
				t.Fatalf("query dim err = %v, want ErrDimMismatch", err)
			}
			if _, err := idx.QueryBatch(ctx, [][]float32{make([]float32, 5)}, 10); !errors.Is(err, ErrDimMismatch) {
				t.Fatalf("batch dim err = %v, want ErrDimMismatch", err)
			}
			if _, err := idx.Insert(make([]float32, 5)); !errors.Is(err, ErrDimMismatch) {
				t.Fatalf("insert dim err = %v, want ErrDimMismatch", err)
			}
			if _, err := idx.Query(ctx, queries[0], 10, WithAlpha(16), WithGamma(64)); !errors.Is(err, ErrBadOptions) {
				t.Fatalf("widening cascade err = %v, want ErrBadOptions", err)
			}
			if _, err := idx.Query(ctx, queries[0], 10, WithAlpha(-3)); !errors.Is(err, ErrBadOptions) {
				t.Fatalf("negative alpha err = %v, want ErrBadOptions", err)
			}
			if _, err := idx.QueryBatch(ctx, queries, 10, WithGamma(4)); !errors.Is(err, ErrBadOptions) {
				t.Fatalf("batch gamma<k err = %v, want ErrBadOptions", err)
			}
		})
	}
}

// A k far above the index's size is answered with every vector at the
// cost of what the index holds, on both layouts; a k beyond the knob
// limit (2^24) is an ErrBadOptions, where it used to be an
// unrecoverable out-of-memory.
func TestQueryHugeK(t *testing.T) {
	ds := data.Generate(data.Config{Name: "hugek", N: 300, Dim: 16, Clusters: 3, Lo: 0, Hi: 1, Seed: 35})
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			idx, err := Build(filepath.Join(t.TempDir(), "ix"), ds.Vectors,
				Options{Tau: 2, Omega: 8, M: 3, Alpha: 300, Beta: 300, Gamma: 300, Seed: 4, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			defer idx.Close()
			ctx, q := context.Background(), ds.Vectors[7]
			if _, err := idx.Query(ctx, q, 1<<24+1); !errors.Is(err, ErrBadOptions) {
				t.Fatalf("k = 2^24+1: err %v, want ErrBadOptions", err)
			}
			if _, err := idx.Query(ctx, q, 10); err != nil { // warm the scratch pools
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			resp, err := idx.Query(ctx, q, 1<<20)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Results) != 300 {
				t.Fatalf("k = 2^20 over 300 vectors returned %d results", len(resp.Results))
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Fatalf("k = 2^20 allocated %d bytes, want < 1 MiB", grew)
			}
		})
	}
}

// One set of vectors, three ways to hold it — a bare directory opened
// through the facade, the same bytes opened with core.Open (what a
// cluster's shard server does), and a 1-shard manifest layout — must
// answer bit-identically, and keep doing so across a live insert, a
// compaction and a reopen.
func TestOneShardLayoutsBitIdentical(t *testing.T) {
	ds := data.Generate(data.Config{Name: "lay", N: 1200, Dim: 32, Clusters: 6, Lo: 0, Hi: 1, Seed: 51})
	novel := make([]float32, 32)
	for d := range novel {
		novel[d] = 0.37
	}
	queries := append(ds.PerturbedQueries(50, 0.02, 52), novel)
	opts := Options{Tau: 4, Omega: 8, M: 5, Alpha: 256, Gamma: 64, Seed: 3}

	bareDir := filepath.Join(t.TempDir(), "bare")
	built, err := Build(bareDir, ds.Vectors, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	coreDir := crashClone(t, bareDir) // its own copy: two handles on one directory fight over the WAL
	opts.Shards = 1
	oneDir := filepath.Join(t.TempDir(), "one")
	if built, err = Build(oneDir, ds.Vectors, opts); err != nil {
		t.Fatal(err)
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}

	for _, stage := range []string{"as built", "after insert + compact + reopen"} {
		viaFacade, err := Open(bareDir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		viaCore, err := core.Open(coreDir, core.OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		oneShard, err := Open(oneDir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if viaFacade.NumShards() != 1 || oneShard.NumShards() != 1 {
			t.Fatalf("%s: NumShards = %d (bare), %d (Shards: 1), want 1 and 1", stage, viaFacade.NumShards(), oneShard.NumShards())
		}
		for qi, q := range queries {
			want, err := viaFacade.Query(ctx, q, 10)
			if err != nil {
				t.Fatal(err)
			}
			fromCore, _, err := viaCore.Query(ctx, q, 10, core.SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			fromOne, err := oneShard.Query(ctx, q, 10)
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, fmt.Sprintf("%s, query %d, core.Open", stage, qi), fromCore, want.Results)
			requireBitIdentical(t, fmt.Sprintf("%s, query %d, Shards: 1", stage, qi), fromOne.Results, want.Results)
		}

		// Mutate all three alike; the second pass reads it back from disk.
		idFacade, err := viaFacade.Insert(novel)
		if err != nil {
			t.Fatal(err)
		}
		idCore, err := viaCore.Insert(novel)
		if err != nil {
			t.Fatal(err)
		}
		idOne, err := oneShard.Insert(novel)
		if err != nil {
			t.Fatal(err)
		}
		if idCore != idFacade || idOne != idFacade {
			t.Fatalf("%s: insert ids %d (facade), %d (core), %d (Shards: 1)", stage, idFacade, idCore, idOne)
		}
		if err := errors.Join(viaFacade.Compact(ctx), viaCore.Compact(ctx), oneShard.Compact(ctx)); err != nil {
			t.Fatal(err)
		}
		if err := errors.Join(viaFacade.Close(), viaCore.Close(), oneShard.Close()); err != nil {
			t.Fatal(err)
		}
	}
}
