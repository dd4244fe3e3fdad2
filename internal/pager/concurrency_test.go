package pager

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/hd-index/hdindex/internal/iofault"
)

// Concurrent readers over a shared pager (the access pattern of parallel
// tree search within one query batch) must be race-free and observe
// consistent page content. Run under -race in CI.
func TestConcurrentReaders(t *testing.T) {
	p, _ := newTemp(t, Options{PoolPages: 4})
	const pages = 16
	ids := make([]PageID, pages)
	for i := 0; i < pages; i++ {
		ids[i] = appendPage(t, p, binary.BigEndian.AppendUint64(nil, uint64(i)*7))
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
	id := appendPage(t, p, []byte("pinned!!"))
	for i := 0; i < 20; i++ {
		appendPage(t, p, nil)
	}
	pinned, err := p.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	// Flood the pool far past capacity while the first page stays pinned.
	for i := id + 1; i <= id+20; i++ {
		pg, err := p.Get(i)
		if err != nil {
			t.Fatal(err)
		}
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

// Concurrent Get/View/Stats traffic across the shared pool — the
// access pattern of parallel searches — must stay race-free and serve
// consistent content under eviction pressure. Run under -race in CI.
func TestConcurrentShardedPool(t *testing.T) {
	p, _ := newTemp(t, Options{PoolPages: 8})
	const pages = 64
	ids := make([]PageID, pages)
	for i := 0; i < pages; i++ {
		ids[i] = appendPage(t, p, binary.BigEndian.AppendUint64(nil, uint64(i)*13))
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

// closeWatch notes a write that reaches the file after its Close.
type closeWatch struct {
	iofault.File
	closed, writeAfterClose atomic.Bool
}

func (w *closeWatch) WriteAt(b []byte, off int64) (int, error) {
	if w.closed.Load() {
		w.writeAfterClose.Store(true)
	}
	return w.File.WriteAt(b, off)
}

func (w *closeWatch) Close() error {
	w.closed.Store(true)
	return w.File.Close()
}

// One file of a shared cache closes while the misses of two others,
// read from goroutines of their own, evict its frames. Its pages reach
// it once each, when written, and nothing after the file is closed: an
// eviction only forgets a page. The readers see their own bytes
// throughout, and the cache ends with the readers' shares alone. Run
// under -race in CI, ten times over (make chaos).
func TestSharedCacheCloseRacesEviction(t *testing.T) {
	const readerPages, writtenPages, readerShare = 96, 48, 4
	paths := []string{scanPath(t, readerPages), scanPath(t, readerPages)}
	for round := 0; round < 5; round++ {
		c := NewCache()
		readers := make([]*Pager, len(paths))
		for i, path := range paths {
			p, err := c.Open(path, Options{PoolPages: readerShare, ReadOnly: true})
			if err != nil {
				t.Fatal(err)
			}
			readers[i] = p
		}
		path := filepath.Join(t.TempDir(), "written.pg")
		a, err := c.Open(path, Options{Create: true, PoolPages: 64})
		if err != nil {
			t.Fatal(err)
		}
		watch := &closeWatch{File: a.f}
		a.f = watch
		want := make(map[PageID]uint64)
		for i := 0; i < writtenPages; i++ {
			w := uint64(round<<16 | i)
			want[appendPage(t, a, binary.BigEndian.AppendUint64(nil, w))] = w
		}
		for id := range want { // resident, for the readers' misses to evict
			v, err := a.View(id)
			if err != nil {
				t.Fatal(err)
			}
			v.Release()
		}

		stop := make(chan struct{})
		var started, wg sync.WaitGroup
		errs := make([]error, len(readers))
		for r, p := range readers {
			started.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; ; n++ {
					if n == 4 { // Close starts with the evictions under way
						started.Done()
					}
					select {
					case <-stop:
						return
					default:
					}
					id := PageID(1 + (n*7+r)%readerPages)
					v, err := p.View(id)
					if err != nil {
						errs[r] = err
						if n < 4 {
							started.Done()
						}
						return
					}
					if v.Data[0] != byte(id) || v.Data[len(v.Data)-1] != byte(id) {
						errs[r] = ErrCorrupt(id)
					}
					v.Release()
				}
			}()
		}
		started.Wait()
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		close(stop)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if watch.writeAfterClose.Load() {
			t.Fatal("a page was written to the file after its Close")
		}
		// The superblock at Create and at Close, and each page once.
		if st := a.Stats(); st.Writes != writtenPages+2 {
			t.Fatalf("%d writes to the closed file, want %d: each page once and the superblock twice", st.Writes, writtenPages+2)
		}
		if c.pages != len(readers)*readerShare {
			t.Fatalf("the cache holds %d pages of capacity after the close, want the readers' %d", c.pages, len(readers)*readerShare)
		}
		a2, err := Open(path, Options{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		for id, w := range want {
			v, err := a2.View(id)
			if err != nil {
				t.Fatal(err)
			}
			if got := binary.BigEndian.Uint64(v.Data); got != w {
				t.Fatalf("round %d: page %d holds %#x, want %#x", round, id, got, w)
			}
			v.Release()
		}
		a2.Close()
		for _, p := range readers {
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// Readers view a file's pages while a writer replaces every page, round
// after round, and appends more, through a pool too small to hold them:
// each view holds one whole round's bytes, never a torn page, and never
// an older round than that reader saw before; a pinned copy keeps its
// bytes while writes replace its page; and the file ends holding the
// last round. Run under -race in CI, ten times over (make chaos).
func TestSharedCacheWritesBesideReaders(t *testing.T) {
	const rounds, maxPages = 60, 16
	p, err := NewCache().Open(filepath.Join(t.TempDir(), "w.pg"), Options{Create: true, PageSize: 64, PoolPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	page := func(round int) []byte { return bytes.Repeat([]byte{byte(round)}, p.PageSize()) }
	for range 8 {
		appendPage(t, p, page(0))
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for r := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := make(map[PageID]byte)
			var held View // pinned across other views and writes
			var heldRound byte
			for n := 0; !done.Load() && errs[r] == nil; n++ {
				id := PageID(1 + (n*7+r)%(int(p.PageCount())-1))
				v, err := p.View(id)
				if err != nil {
					errs[r] = err
					return
				}
				round := v.Data[0]
				if !bytes.Equal(v.Data, bytes.Repeat([]byte{round}, len(v.Data))) {
					errs[r] = fmt.Errorf("page %d is torn: %v", id, v.Data)
				} else if round < seen[id] {
					errs[r] = fmt.Errorf("page %d went back from round %d to %d", id, seen[id], round)
				}
				seen[id] = round
				if n%16 != 0 {
					v.Release()
					continue
				}
				if held.fr != nil {
					if !bytes.Equal(held.Data, bytes.Repeat([]byte{heldRound}, len(held.Data))) {
						errs[r] = fmt.Errorf("a pinned copy of round %d changed under its pin", heldRound)
					}
					held.Release()
				}
				held, heldRound = v, round
			}
			if held.fr != nil {
				held.Release()
			}
		}()
	}
	for round := 1; round <= rounds; round++ {
		for id := PageID(1); uint64(id) < p.PageCount(); id++ {
			if err := p.Write(id, page(round)); err != nil {
				t.Fatal(err)
			}
		}
		if p.PageCount() <= maxPages {
			appendPage(t, p, page(round))
		}
	}
	done.Store(true)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for id := PageID(1); uint64(id) < p.PageCount(); id++ {
		v, err := p.View(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.Data[0] != rounds {
			t.Fatalf("page %d holds round %d after the last, %d", id, v.Data[0], rounds)
		}
		v.Release()
	}
}
