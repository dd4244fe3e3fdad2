package pager

import (
	"encoding/binary"
	"sync"
	"testing"
)

// Concurrent readers over a shared pager (the access pattern of parallel
// tree search within one query batch) must be race-free and observe
// consistent page content. Run under -race in CI.
func TestConcurrentReaders(t *testing.T) {
	p, _ := newTemp(t, Options{PoolPages: 4})
	const pages = 16
	ids := make([]PageID, pages)
	for i := 0; i < pages; i++ {
		pg, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint64(pg.Data, uint64(i)*7)
		pg.MarkDirty()
		ids[i] = pg.ID
		pg.Release()
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				i := (w + round) % pages
				pg, err := p.Get(ids[i])
				if err != nil {
					errs[w] = err
					return
				}
				if got := binary.BigEndian.Uint64(pg.Data); got != uint64(i)*7 {
					errs[w] = ErrCorrupt(i)
					pg.Release()
					return
				}
				pg.Release()
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// ErrCorrupt is a test-local error carrying the page index.
type ErrCorrupt int

func (e ErrCorrupt) Error() string { return "corrupt page content" }

// A pinned page must never be evicted even under pool pressure.
func TestPinnedPageSurvivesPressure(t *testing.T) {
	p, _ := newTemp(t, Options{PoolPages: 2})
	pinned, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	copy(pinned.Data, "pinned!!")
	pinned.MarkDirty()
	// Flood the pool far past capacity while the first page stays pinned.
	for i := 0; i < 20; i++ {
		pg, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		pg.MarkDirty()
		pg.Release()
	}
	if string(pinned.Data[:8]) != "pinned!!" {
		t.Fatal("pinned page content lost")
	}
	pinned.Release()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// Concurrent Get/View/Stats traffic across the lock-striped pool — the
// access pattern of parallel searches — must stay race-free and serve
// consistent content under eviction pressure. Run under -race in CI.
func TestConcurrentShardedPool(t *testing.T) {
	p, _ := newTemp(t, Options{PoolPages: 8})
	const pages = 64
	ids := make([]PageID, pages)
	for i := 0; i < pages; i++ {
		pg, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint64(pg.Data, uint64(i)*13)
		pg.MarkDirty()
		ids[i] = pg.ID
		pg.Release()
	}
	var wg sync.WaitGroup
	errs := make([]error, 12)
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 300; round++ {
				i := (w*31 + round*7) % pages
				if w%3 == 0 { // a third of the workers use the Page path
					pg, err := p.Get(ids[i])
					if err != nil {
						errs[w] = err
						return
					}
					if got := binary.BigEndian.Uint64(pg.Data); got != uint64(i)*13 {
						errs[w] = ErrCorrupt(i)
						pg.Release()
						return
					}
					pg.Release()
					continue
				}
				v, err := p.View(ids[i])
				if err != nil {
					errs[w] = err
					return
				}
				if got := binary.BigEndian.Uint64(v.Data); got != uint64(i)*13 {
					errs[w] = ErrCorrupt(i)
					v.Release()
					return
				}
				v.Release()
				if round%50 == 0 {
					_ = p.Stats() // aggregate reads race-free with traffic
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("no pool traffic recorded")
	}
}
