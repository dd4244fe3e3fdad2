package shard_test

import (
	"fmt"
	"testing"

	"github.com/hd-index/hdindex"
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
			s, dir := build(t, ds.Vectors, hdindex.Options{Tau: 4, Omega: 8, M: 4, Alpha: 256, Gamma: 64, Seed: 13, Shards: shards})

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

			// Record the pre-close answers, then close. Inserts live in
			// the WAL; deletes were already persisted synchronously.
			want := make([][]hdindex.Result, len(queries))
			for qi, q := range queries {
				resp, err := s.Query(ctx, q, 10)
				if err != nil {
					t.Fatal(err)
				}
				want[qi] = resp.Results
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := hdindex.Open(dir, hdindex.Options{})
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
				resp, err := re.Query(ctx, q, 10)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResults(t, fmt.Sprintf("query %d after reopen", qi), resp.Results, want[qi])
			}
			// The deletion marks specifically must still hold.
			resp, err := re.Query(ctx, ds.Vectors[0], int(re.Count())/2)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range []uint64{77, inserted[2]} {
				for _, r := range resp.Results {
					if r.ID == id {
						t.Fatalf("deleted id %d resurfaced after reopen", id)
					}
				}
			}
		})
	}
}
