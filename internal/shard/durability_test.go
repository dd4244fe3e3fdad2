package shard

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"github.com/hd-index/hdindex/internal/core"
	"github.com/hd-index/hdindex/internal/data"
)

// The full mutation lifecycle must survive a close/reopen cycle with
// identical search results, on both a 1-shard and a 4-shard layout:
// Build → Insert → Delete → Close → Open.
func TestDurabilityRoundTrip(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ds := data.Generate(data.Config{Name: "dur", N: 1200, Dim: 32, Clusters: 5, Lo: 0, Hi: 1, Seed: 41})
			queries := ds.PerturbedQueries(10, 0.02, 42)
			dir := filepath.Join(t.TempDir(), "ix")

			s, err := Build(dir, ds.Vectors, Params{
				Params: core.Params{Tau: 4, Omega: 8, M: 4, Alpha: 256, Gamma: 64, Seed: 13},
				Shards: shards,
			})
			if err != nil {
				t.Fatal(err)
			}

			// Mutate: a few inserts, then delete both an original vector
			// and one of the fresh inserts.
			var inserted []uint64
			for i := 0; i < 6; i++ {
				vec := make([]float32, 32)
				for d := range vec {
					vec[d] = 0.8 + 0.01*float32(i)
				}
				id, err := s.Insert(vec)
				if err != nil {
					t.Fatal(err)
				}
				inserted = append(inserted, id)
			}
			if err := s.Delete(77); err != nil {
				t.Fatal(err)
			}
			if err := s.Delete(inserted[2]); err != nil {
				t.Fatal(err)
			}

			// Record the pre-close answers, then close. Close persists
			// dirty pages; deletes were already persisted synchronously.
			want := make([][]core.Result, len(queries))
			for qi, q := range queries {
				res, _, err := s.Query(context.Background(), q, 10, core.SearchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				want[qi] = res
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := Open(dir, core.OpenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.Count() != 1206 {
				t.Fatalf("reopened count = %d, want 1206", re.Count())
			}
			if re.DeletedCount() != 2 {
				t.Fatalf("reopened deleted count = %d, want 2", re.DeletedCount())
			}
			for qi, q := range queries {
				res, _, err := re.Query(context.Background(), q, 10, core.SearchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				requireSameResults(t, fmt.Sprintf("query %d after reopen", qi), res, want[qi])
			}
			// The deletion marks specifically must still hold.
			for _, id := range []uint64{77, inserted[2]} {
				res, _, err := re.Query(context.Background(), ds.Vectors[0], int(re.Count())/2, core.SearchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range res {
					if r.ID == id {
						t.Fatalf("deleted id %d resurfaced after reopen", id)
					}
				}
			}
		})
	}
}
