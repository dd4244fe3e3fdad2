package core

import (
	"context"
	"sync/atomic"
	"testing"

	"github.com/hd-index/hdindex/internal/data"
)

// The buffer pool reads a missing page into the frame of the page it
// evicts, so a slice borrowed from a pinned frame and used after its
// Release reads another page's bytes. One fixed-seed index is built and
// served through 8-page pools — one frame per stripe: every released
// frame is overwritten by the next miss in its stripe — and through
// pools that hold every page. Query, with and without helpers, and a
// four-worker QueryBatch must answer as the in-memory reference pipeline
// does (ids, distances, order, candidate count) at both sizes, in quiet
// and then beside a writer that inserts, deletes and compacts. The
// writer only adds and removes vectors far outside the data, and runs
// beside the exhaustive cascade alone (α covers every entry, so no α
// window can shift): it moves pages under the queries, never an answer.
func TestTinyPoolAnswersAsLargePool(t *testing.T) {
	ds := data.Generate(data.Config{Name: "torture", N: 3000, Dim: 32, Clusters: 8, Lo: 0, Hi: 1, Seed: 91})
	queries := ds.PerturbedQueries(12, 0.02, 92)
	p := Params{Tau: 4, Omega: 8, M: 6, Alpha: 512, Gamma: 128, Seed: 5, BatchWorkers: 4}
	exhaustive := SearchOptions{Alpha: 4 * len(ds.Vectors), Gamma: 256}
	shapes := []SearchOptions{{}, exhaustive}

	type answer struct {
		res  []Result
		cand int
	}
	want := make(map[SearchOptions][]answer)
	ref, err := Build(t.TempDir()+"/ref", ds.Vectors, p)
	if err != nil {
		t.Fatal(err)
	}
	trees := loadReferenceTrees(t, ref)
	for _, o := range shapes {
		for _, q := range queries {
			res, cand := naiveSearchWith(t, ref, q, 10, o, func(tr int, qdist []float64, plan searchPlan) []uint64 {
				return trees.referenceTree(ref, tr, q, qdist, plan)
			})
			want[o] = append(want[o], answer{res, cand})
		}
	}
	ref.Close()

	for _, pool := range []int{8, 16384} {
		p.PoolPages = pool // Build's bulk load and every compaction go through the same pools
		ix, err := Build(t.TempDir()+"/ix", ds.Vectors, p)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		verify := func(o SearchOptions) {
			t.Helper()
			for qi, q := range queries {
				got, st, err := ix.Query(context.Background(), q, 10, o)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResults(t, qi, got, st, want[o][qi].res, want[o][qi].cand)
			}
			batch, sts, err := ix.QueryBatch(context.Background(), queries, 10, o)
			if err != nil {
				t.Fatal(err)
			}
			for qi := range queries {
				assertSameResults(t, qi, batch[qi], sts[qi], want[o][qi].res, want[o][qi].cand)
			}
		}
		eachHelperCount(p.Tau, func(int) {
			for _, o := range shapes {
				verify(o)
			}
		})
		eachHelperCount(p.Tau, func(int) {
			var compactions atomic.Int32
			stop, writer := make(chan struct{}), make(chan error, 1)
			go func() {
				far := make([]float32, len(ds.Vectors[0]))
				for i := range far {
					far[i] = 50
				}
				for i := 0; ; i++ {
					select {
					case <-stop:
						writer <- nil
						return
					default:
					}
					id, err := ix.Insert(far)
					if err == nil && i%2 == 0 {
						err = ix.Delete(id)
					}
					if err == nil && i%4 == 3 {
						err = ix.Compact(context.Background())
						compactions.Add(1)
					}
					if err != nil {
						writer <- err
						return
					}
				}
			}()
			for len(writer) == 0 && compactions.Load() < 3 {
				verify(exhaustive)
			}
			close(stop)
			if err := <-writer; err != nil {
				t.Fatal(err)
			}
		})
	}
}
