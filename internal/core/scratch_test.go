package core

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"github.com/hd-index/hdindex/internal/pager"
	"github.com/hd-index/hdindex/internal/rdbtree"
	"github.com/hd-index/hdindex/internal/vecstore"
)

// requireClearBitmap fails unless every word of s's dedup bitmap, up to
// its capacity, is zero — the state union must leave for the next query.
func requireClearBitmap(t *testing.T, s *searchScratch) {
	t.Helper()
	for w, word := range s.bitmap[:cap(s.bitmap)] {
		if word != 0 {
			t.Fatalf("bitmap word %d = %#x after the union", w, word)
		}
	}
}

// A corrupted tree can hand out slots far past the store's count: they
// dedup through the map, never by growing the bitmap toward the garbage
// slot (a near-2^63 slot must not become a huge allocation), and still
// reach refinement, which answers ErrBadID.
func TestUnionCorruptSlot(t *testing.T) {
	s := new(searchScratch)
	s.sizeBitmap(10)
	huge := uint64(1) << 62
	s.perTree = [][]uint64{{5, huge, 3}, {huge, 5, 9}}
	if got, want := s.union(0), []uint64{3, 5, 9, huge}; !slices.Equal(got, want) {
		t.Fatalf("union = %v, want %v", got, want)
	}
	if len(s.bitmap) != 1 || cap(s.bitmap) != 1 {
		t.Fatalf("bitmap grew to %d words chasing a corrupt slot", cap(s.bitmap))
	}
	requireClearBitmap(t, s)

	// End to end: tree 0 rewritten with one entry pointing at the last
	// 32-bit slot, far past the store, and a cascade that keeps every
	// entry it walks.
	p := Params{Tau: 2, Omega: 8, M: 3, Alpha: 300, Beta: 300, Gamma: 300, Seed: 5}
	ix, _, queries := buildSmall(t, 300, p)
	good := ix.trees[0]
	pgr, err := pager.Open(filepath.Join(t.TempDir(), "bad.pg"), pager.Options{Create: true, PageSize: good.Pager().PageSize()})
	if err != nil {
		t.Fatal(err)
	}
	defer pgr.Close()
	bad, err := rdbtree.Create(pgr, good.Config())
	if err != nil {
		t.Fatal(err)
	}
	var recs []rdbtree.Record
	err = good.ScanAll(func(key []byte, e rdbtree.Entry) bool {
		recs = append(recs, rdbtree.Record{Key: slices.Clone(key), ID: e.ID, RefDists: slices.Clone(e.RefDists)})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	recs[len(recs)/2].ID = math.MaxUint32
	if err := bad.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	ix.trees[0] = bad
	defer func() { ix.trees[0] = good }()
	if _, _, err := ix.Query(context.Background(), queries[0], 5, SearchOptions{}); !errors.Is(err, vecstore.ErrBadID) {
		t.Fatalf("query over a corrupt slot: err %v, want ErrBadID", err)
	}
}

// Stores beyond bitmapMaxSlots keep the bitmap at the cap and dedup the
// slots past it through the map: the union is still deduplicated and
// ascending across both, the map's slots after the bitmap's.
func TestUnionAboveTheCap(t *testing.T) {
	s := new(searchScratch)
	s.sizeBitmap(bitmapMaxSlots + 1000)
	if len(s.bitmap)*64 != bitmapMaxSlots {
		t.Fatalf("bitmap covers %d slots for an over-cap store, want %d", len(s.bitmap)*64, bitmapMaxSlots)
	}
	const top = bitmapMaxSlots - 1
	s.perTree = [][]uint64{
		{bitmapMaxSlots + 5, 7, top, 3},
		{7, bitmapMaxSlots + 1, bitmapMaxSlots + 5, 0, bitmapMaxSlots},
	}
	want := []uint64{0, 3, 7, top, bitmapMaxSlots, bitmapMaxSlots + 1, bitmapMaxSlots + 5}
	if got := s.union(0); !slices.Equal(got, want) {
		t.Fatalf("union = %v, want %v", got, want)
	}
	requireClearBitmap(t, s)
	if len(s.seen) != 0 {
		t.Fatalf("%d map slots left after the union", len(s.seen))
	}
	// The κ cap counts distinct slots in tree order, map slots included.
	if got, want := s.union(5), []uint64{3, 7, top, bitmapMaxSlots + 1, bitmapMaxSlots + 5}; !slices.Equal(got, want) {
		t.Fatalf("union capped at 5 = %v, want %v", got, want)
	}
	requireClearBitmap(t, s)
}

// scratchAfter runs query and takes the search scratch it ran on back
// out of the pool: with one P and the collector off, the pool hands back
// the scratch Query put last. The race detector drops pooled values at
// random, so a query whose scratch is not the one handed back — its
// candidate buffer does not hold κ slots — is run again.
func scratchAfter(t *testing.T, kappa int, query func()) *searchScratch {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for range 100 {
		query()
		if s := searchPool.Get().(*searchScratch); s.bitmap != nil && len(s.candidates) == kappa {
			return s
		}
	}
	t.Fatal("the pool never handed back the query's scratch")
	return nil
}

// Nothing resets the bitmap between queries, so every query must leave
// it all zero: a normal one, a κ-capped one, and one cancelled in the
// middle of its refinement, after the union was taken.
func TestUnionLeavesBitmapClear(t *testing.T) {
	p := Params{Tau: 4, Omega: 8, M: 4, Alpha: 256, Gamma: 64, Seed: 7}
	ix, _, queries := buildSmall(t, 2000, p)
	q := queries[0]
	_, st, err := ix.Query(context.Background(), q, 10, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	kappa := st.Candidates
	t.Run("normal", func(t *testing.T) {
		requireClearBitmap(t, scratchAfter(t, kappa, func() {
			if _, _, err := ix.Query(context.Background(), q, 10, SearchOptions{}); err != nil {
				t.Fatal(err)
			}
		}))
	})
	t.Run("capped", func(t *testing.T) {
		capped := kappa / 2
		requireClearBitmap(t, scratchAfter(t, capped, func() {
			_, st, err := ix.Query(context.Background(), q, 10, SearchOptions{MaxCandidates: capped})
			if err != nil {
				t.Fatal(err)
			}
			if st.Candidates != capped {
				t.Fatalf("capped query: κ = %d, want %d", st.Candidates, capped)
			}
		}))
	})
	t.Run("cancelled mid-refinement", func(t *testing.T) {
		// The last context check of a query at GOMAXPROCS(1) is in its one
		// refinement run: count a full query's checks, then cancel at that
		// one.
		var checks int32
		scratchAfter(t, kappa, func() {
			count := &cancelAfter{Context: context.Background(), n: math.MaxInt32}
			if _, _, err := ix.Query(count, q, 10, SearchOptions{}); err != nil {
				t.Fatal(err)
			}
			checks = count.calls.Load()
		})
		requireClearBitmap(t, scratchAfter(t, kappa, func() {
			ctx := &cancelAfter{Context: context.Background(), n: checks}
			if _, _, err := ix.Query(ctx, q, 10, SearchOptions{}); !errors.Is(err, context.Canceled) {
				t.Fatalf("query err = %v, want context.Canceled in the refinement", err)
			}
		}))
	})
}
