package rdbtree

import (
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"github.com/hd-index/hdindex/internal/pager"
)

// Property (testing/quick): for any query key, SearchNearest(1) returns
// an entry whose key distance to the query is globally minimal.
func TestQuickNearestIsGlobalMinimum(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.pg")
	pgr, err := pager.Open(path, pager.Options{Create: true, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer pgr.Close()
	tr, err := Create(pgr, Config{Eta: 16, Omega: 8, M: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	keys := make([]uint64, 0, 400)
	seen := map[uint64]bool{}
	for len(keys) < 400 {
		k := uint64(rng.Intn(1 << 24))
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	// Sort and load.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	recs := make([]Record, len(keys))
	for i, k := range keys {
		recs[i] = Record{Key: key16(k), ID: uint64(i), RefDists: []float32{0}}
	}
	if err := tr.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}

	absDiff := func(a, b uint64) uint64 {
		if a > b {
			return a - b
		}
		return b - a
	}
	f := func(qRaw uint32) bool {
		q := uint64(qRaw) % (1 << 24)
		got, err := nearest(tr, key16(q), 1)
		if err != nil || len(got) != 1 {
			return false
		}
		gotDist := absDiff(keys[got[0].ID], q)
		for _, k := range keys {
			if absDiff(k, q) < gotDist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: every entry bulk-loaded is retrievable with a sufficiently
// large alpha, and the multiset of ids is exactly preserved.
func TestQuickAllEntriesReachable(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%200 + 10
		path := filepath.Join(t.TempDir(), "qa.pg")
		pgr, err := pager.Open(path, pager.Options{Create: true, PageSize: 256})
		if err != nil {
			return false
		}
		defer pgr.Close()
		tr, err := Create(pgr, Config{Eta: 16, Omega: 8, M: 1})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		recs := make([]Record, n)
		prev := uint64(0)
		for i := range recs {
			prev += uint64(rng.Intn(100)) // non-decreasing, duplicates allowed
			recs[i] = Record{Key: key16(prev), ID: uint64(i), RefDists: []float32{float32(i)}}
		}
		if err := tr.BulkLoad(recs); err != nil {
			return false
		}
		got, err := nearest(tr, key16(0), n+10)
		if err != nil || len(got) != n {
			return false
		}
		found := make([]bool, n)
		for _, e := range got {
			if e.ID >= uint64(n) || found[e.ID] {
				return false
			}
			if !within(tr, e.RefDists[0], float32(e.ID)) {
				return false
			}
			found[e.ID] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
