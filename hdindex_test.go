package hdindex

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/hd-index/hdindex/internal/data"
	"github.com/hd-index/hdindex/internal/metrics"
)

// The facade must behave identically to the core: build, search, insert,
// persist, reopen.
// ctx is the context of every query in this package's tests that does
// not exercise cancellation.
var ctx = context.Background()

func TestFacadeEndToEnd(t *testing.T) {
	ds := data.Generate(data.Config{N: 2000, Dim: 32, Clusters: 6, Lo: 0, Hi: 1, Seed: 1})
	queries := ds.PerturbedQueries(10, 0.01, 2)
	dir := filepath.Join(t.TempDir(), "ix")

	idx, err := Build(dir, ds.Vectors, Options{Tau: 4, Omega: 8, Alpha: 512, Gamma: 128, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Count() != 2000 || idx.Dim() != 32 {
		t.Fatalf("count=%d dim=%d", idx.Count(), idx.Dim())
	}
	if idx.SizeOnDisk() <= 0 {
		t.Fatal("SizeOnDisk must be positive")
	}

	truthIDs, _ := data.GroundTruth(ds.Vectors, queries, 10)
	var got [][]uint64
	for _, q := range queries {
		resp, err := idx.Query(ctx, q, 10, WithStats())
		if err != nil {
			t.Fatal(err)
		}
		if resp.Stats.Candidates < 1 {
			t.Fatal("stats not populated")
		}
		ids := make([]uint64, len(resp.Results))
		for i, r := range resp.Results {
			ids[i] = r.ID
		}
		got = append(got, ids)
	}
	if m := metrics.MAP(got, truthIDs, 10); m < 0.6 {
		t.Errorf("facade MAP@10 = %v", m)
	}

	// Insert + immediate retrieval.
	novel := make([]float32, 32)
	for d := range novel {
		novel[d] = 0.99
	}
	id, err := idx.Insert(novel)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := idx.Query(ctx, novel, 1)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].ID != id {
		t.Fatalf("inserted vector not found: %+v", resp.Results[0])
	}
	if err := idx.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen.
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Count() != 2001 {
		t.Fatalf("reopened count = %d, want 2001", re.Count())
	}
	resp, err = re.Query(ctx, novel, 1)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].ID != id {
		t.Fatal("reopened index lost the inserted vector")
	}
}

// Options.Shards must produce a manifest layout that Open auto-detects,
// with the whole facade surface working identically over it.
func TestFacadeShardedLayout(t *testing.T) {
	ds := data.Generate(data.Config{N: 1601, Dim: 32, Clusters: 6, Lo: 0, Hi: 1, Seed: 4})
	queries := ds.PerturbedQueries(8, 0.01, 5)
	dir := filepath.Join(t.TempDir(), "ix")

	idx, err := Build(dir, ds.Vectors, Options{Tau: 4, Omega: 8, Alpha: 512, Gamma: 128, Seed: 3, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if idx.NumShards() != 4 {
		t.Fatalf("NumShards = %d", idx.NumShards())
	}
	shards := idx.Shards()
	if len(shards) != 4 {
		t.Fatalf("%d shard infos", len(shards))
	}
	var sum uint64
	for _, sh := range shards {
		sum += sh.Count
	}
	if sum != 1601 {
		t.Fatalf("shard counts sum to %d", sum)
	}

	truthIDs, _ := data.GroundTruth(ds.Vectors, queries, 10)
	var got [][]uint64
	for _, q := range queries {
		resp, err := idx.Query(ctx, q, 10, WithStats())
		if err != nil {
			t.Fatal(err)
		}
		if resp.Stats.Candidates < 1 {
			t.Fatal("aggregated stats not populated")
		}
		ids := make([]uint64, len(resp.Results))
		for i, r := range resp.Results {
			ids[i] = r.ID
		}
		got = append(got, ids)
	}
	if m := metrics.MAP(got, truthIDs, 10); m < 0.5 {
		t.Errorf("sharded facade MAP@10 = %v", m)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}

	// Open auto-detects the manifest; Options.Shards is irrelevant here.
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumShards() != 4 || re.Count() != 1601 {
		t.Fatalf("reopened: shards=%d count=%d", re.NumShards(), re.Count())
	}
}

// The mutation lifecycle must survive close/reopen with identical
// results on both layouts the facade can write (Options.Shards 0, 1,
// and 4 — bare, 1-shard manifest, multi-shard manifest).
func TestFacadeDurabilityAcrossLayouts(t *testing.T) {
	for _, shards := range []int{0, 1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ds := data.Generate(data.Config{N: 1000, Dim: 32, Clusters: 5, Lo: 0, Hi: 1, Seed: 8})
			queries := ds.PerturbedQueries(6, 0.02, 9)
			dir := filepath.Join(t.TempDir(), "ix")

			idx, err := Build(dir, ds.Vectors, Options{Tau: 4, Omega: 8, M: 4, Alpha: 256, Gamma: 64, Seed: 2, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			novel := make([]float32, 32)
			for d := range novel {
				novel[d] = 0.95
			}
			id, err := idx.Insert(novel)
			if err != nil {
				t.Fatal(err)
			}
			if id != 1000 {
				t.Fatalf("insert assigned id %d", id)
			}
			if err := idx.Delete(55); err != nil {
				t.Fatal(err)
			}
			want := make([][]Result, len(queries))
			for qi, q := range queries {
				resp, err := idx.Query(ctx, q, 10)
				if err != nil {
					t.Fatal(err)
				}
				want[qi] = resp.Results
			}
			if err := idx.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.Count() != 1001 || re.DeletedCount() != 1 {
				t.Fatalf("reopened count=%d deleted=%d", re.Count(), re.DeletedCount())
			}
			for qi, q := range queries {
				resp, err := re.Query(ctx, q, 10)
				if err != nil {
					t.Fatal(err)
				}
				got := resp.Results
				if len(got) != len(want[qi]) {
					t.Fatalf("query %d: %d results, want %d", qi, len(got), len(want[qi]))
				}
				for i := range got {
					if got[i].ID != want[qi][i].ID || got[i].Dist != want[qi][i].Dist {
						t.Fatalf("query %d rank %d: (%d, %g) vs pre-close (%d, %g)",
							qi, i, got[i].ID, got[i].Dist, want[qi][i].ID, want[qi][i].Dist)
					}
				}
			}
			resp, err := re.Query(ctx, novel, 1)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Results[0].ID != id {
				t.Fatal("reopened index lost the inserted vector")
			}
		})
	}
}

// Rebuilding a directory under a different layout must fully replace
// the old one: a stale manifest (or stale extra shard dirs) silently
// serving the previous dataset would be a silent-wrong-data bug.
func TestFacadeRebuildAcrossLayouts(t *testing.T) {
	old := data.Generate(data.Config{N: 800, Dim: 32, Clusters: 4, Lo: 0, Hi: 1, Seed: 51})
	fresh := data.Generate(data.Config{N: 500, Dim: 32, Clusters: 4, Lo: 0, Hi: 1, Seed: 52})
	opts := func(shards int) Options {
		return Options{Tau: 4, Omega: 8, M: 4, Alpha: 128, Gamma: 32, Seed: 6, Shards: shards}
	}
	dir := filepath.Join(t.TempDir(), "ix")

	// sharded(4) -> bare: the manifest, the shard dirs, and any
	// deletion marks of the old layout must all go.
	idx, err := Build(dir, old.Vectors, opts(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Delete(3); err != nil {
		t.Fatal(err)
	}
	idx.Close()
	if idx, err = Build(dir, fresh.Vectors, opts(0)); err != nil {
		t.Fatal(err)
	}
	idx.Close()
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if re.NumShards() != 1 || re.Count() != 500 {
		t.Fatalf("after sharded->bare rebuild: shards=%d count=%d, want 1/500", re.NumShards(), re.Count())
	}
	if n := re.DeletedCount(); n != 0 {
		t.Fatalf("rebuilt index inherited %d deletion marks", n)
	}
	for _, stale := range []string{"shard-00", "shard-01", "shard-02", "shard-03"} {
		if _, err := os.Stat(filepath.Join(dir, stale)); err == nil {
			t.Errorf("stale %s left behind after sharded->bare rebuild", stale)
		}
	}
	re.Close()

	// bare -> sharded(4) -> sharded(2): the bare index's root files and
	// then the stale higher shard dirs must go.
	if idx, err = Build(dir, old.Vectors, opts(4)); err != nil {
		t.Fatal(err)
	}
	idx.Close()
	for _, stale := range []string{"meta.json", "vectors.pg", "ids.pg", "tree_00.pg"} {
		if _, err := os.Stat(filepath.Join(dir, stale)); err == nil {
			t.Errorf("stale root %s left behind after bare->sharded rebuild", stale)
		}
	}
	if idx, err = Build(dir, fresh.Vectors, opts(2)); err != nil {
		t.Fatal(err)
	}
	idx.Close()
	if re, err = Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumShards() != 2 || re.Count() != 500 {
		t.Fatalf("after 4->2 shard rebuild: shards=%d count=%d, want 2/500", re.NumShards(), re.Count())
	}
	for _, stale := range []string{"shard-02", "shard-03"} {
		if _, err := os.Stat(filepath.Join(dir, stale)); err == nil {
			t.Errorf("stale %s left behind", stale)
		}
	}
}

func TestFacadeErrors(t *testing.T) {
	if _, err := Build(filepath.Join(t.TempDir(), "x"), nil, Options{}); err == nil {
		t.Error("empty dataset must fail")
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing"), Options{}); err == nil {
		t.Error("opening a missing index must fail")
	}
}

// Options.PoolPages reaches every file's pool on both layouts: Build
// records it, Open overrides it for the handle, 0 at Open keeps the
// recorded value. A pool of 8 pages per file cannot hold a query's pages
// (a repeated query misses again), one of 4096 holds the whole index (a
// repeated query reads nothing), and the answers do not depend on it.
func TestFacadePoolPages(t *testing.T) {
	ds := data.Generate(data.Config{N: 2000, Dim: 32, Clusters: 6, Lo: 0, Hi: 1, Seed: 6})
	q := ds.PerturbedQueries(1, 0.01, 7)[0]
	for _, shards := range []int{0, 2} {
		dir := filepath.Join(t.TempDir(), "ix")
		idx, err := Build(dir, ds.Vectors, Options{Tau: 4, Omega: 8, Alpha: 512, Gamma: 128, Seed: 3, Shards: shards, PoolPages: 8})
		if err != nil {
			t.Fatal(err)
		}
		// repeatMisses runs q twice and returns the second run's pool
		// misses and answer.
		repeatMisses := func(idx *Index) (uint64, []Result) {
			t.Helper()
			var resp Response
			for i := 0; i < 2; i++ {
				if resp, err = idx.Query(ctx, q, 10, WithStats()); err != nil {
					t.Fatal(err)
				}
			}
			return resp.Stats.PageMisses, resp.Results
		}
		small, want := repeatMisses(idx)
		if small == 0 {
			t.Fatalf("shards=%d: Build ignored PoolPages: 8 (a repeated query never missed)", shards)
		}
		for _, c := range []struct {
			pool   int
			misses bool
		}{{0, true}, {4096, false}} {
			if err := idx.Close(); err != nil {
				t.Fatal(err)
			}
			if idx, err = Open(dir, Options{PoolPages: c.pool}); err != nil {
				t.Fatal(err)
			}
			misses, got := repeatMisses(idx)
			if (misses > 0) != c.misses {
				t.Errorf("shards=%d: Open with PoolPages: %d: a repeated query missed %d pages (built with 8)", shards, c.pool, misses)
			}
			if !slices.Equal(got, want) {
				t.Errorf("shards=%d PoolPages=%d: answer depends on the pool size", shards, c.pool)
			}
		}
		idx.Close()
	}
}
