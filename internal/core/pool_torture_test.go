package core

import (
	"context"
	"sync/atomic"
	"testing"

	"github.com/hd-index/hdindex/internal/data"
	"github.com/hd-index/hdindex/internal/pager"
)

// The buffer pool reads a missing page into the frame of the page it
// evicts, so a slice borrowed from a pinned frame and used after its
// Release reads another page's bytes. One fixed-seed index is built and
// served through a pool of one page per file — six frames in the shared
// pool's one queue outside a compaction: every released frame is soon
// overwritten by a miss, whichever file it is of — and through a pool
// that holds every page. Query and QueryBatch, with and without
// helpers, must answer as the in-memory reference pipeline
// does (ids, distances, order, candidate count) at both sizes, in quiet
// and then beside a writer that inserts, deletes and compacts. The
// writer only adds and removes vectors far outside the data, and runs
// beside the exhaustive cascade alone (α covers every entry, so no α
// window can shift): it moves pages under the queries, never an answer.
// A compaction that first takes in a vector that far codes every tree
// again at a coarser scale, which does move the bounds, so both indexes
// take one far vector in before any query: the writer's then fit the
// trees' scales, and each compaction keeps every code.
func TestTinyPoolAnswersAsLargePool(t *testing.T) {
	ds := data.Generate(data.Config{Name: "torture", N: 3000, Dim: 32, Clusters: 8, Lo: 0, Hi: 1, Seed: 91})
	queries := ds.PerturbedQueries(12, 0.02, 92)
	p := Params{Tau: 4, Omega: 8, M: 6, Alpha: 512, Gamma: 128, Seed: 5}
	exhaustive := SearchOptions{Alpha: 4 * len(ds.Vectors), Gamma: 256}
	shapes := []SearchOptions{{}, exhaustive}
	far := make([]float32, len(ds.Vectors[0]))
	for i := range far {
		far[i] = 50
	}
	widen := func(ix *Index) {
		t.Helper()
		if _, err := ix.Insert(far); err != nil {
			t.Fatal(err)
		}
		if err := ix.Compact(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	type answer struct {
		res  []Result
		cand int
	}
	want := make(map[SearchOptions][]answer)
	ref, err := Build(t.TempDir()+"/ref", ds.Vectors, p)
	if err != nil {
		t.Fatal(err)
	}
	widen(ref)
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

	for _, pool := range []int{1, 16384} {
		p.PoolPages = pool // every file's share, and the pool each tree writer writes through
		ix, err := Build(t.TempDir()+"/ix", ds.Vectors, p)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		widen(ix)
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

// A compaction scans the old trees and writes the new ones through
// pools of their own, so none of its one-pass traffic evicts the pages
// queries reuse from the index's shared pool: the old trees' pagers
// serve the scan no page, and the new trees' pagers, reopened on the
// shared pool once written, have allocated and written none.
func TestCompactionBypassesTheSharedPool(t *testing.T) {
	ds := data.Generate(data.Config{Name: "bypass", N: 2000, Dim: 32, Clusters: 6, Lo: 0, Hi: 1, Seed: 93})
	p := Params{Tau: 4, Omega: 8, M: 6, Alpha: 512, Gamma: 128, Seed: 5, MemtableMaxVectors: 1 << 20}
	ix, err := Build(t.TempDir()+"/ix", ds.Vectors, p)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for _, q := range ds.PerturbedQueries(8, 0.02, 94) {
		if _, _, err := ix.Query(context.Background(), q, 10, SearchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	old := make([]*pager.Pager, len(ix.trees))
	before := make([]pager.Stats, len(ix.trees))
	for i, tr := range ix.trees {
		old[i], before[i] = tr.Pager(), tr.Pager().Stats()
	}
	far := make([]float32, len(ds.Vectors[0]))
	for i := range far {
		far[i] = 50
	}
	for i := 0; i < 16; i++ {
		if _, err := ix.Insert(far); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, pgr := range old {
		if st := pgr.Stats(); st.Hits != before[i].Hits || st.Misses != before[i].Misses || st.Reads != before[i].Reads {
			t.Errorf("tree %d: the compaction's scan read through the shared pool: %+v, then %+v", i, before[i], st)
		}
	}
	for i, tr := range ix.trees {
		if st := tr.Pager().Stats(); st.Allocs != 0 || st.Writes != 0 {
			t.Errorf("new tree %d was written through the shared pool: %+v", i, st)
		}
	}
}
