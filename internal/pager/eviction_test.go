package pager

import (
	"encoding/binary"
	"path/filepath"
	"sync"
	"testing"
)

func view(t *testing.T, p *Pager, id PageID) View {
	t.Helper()
	v, err := p.View(id)
	if err != nil {
		t.Fatal(err)
	}
	if v.Data[0] != byte(id) {
		t.Fatalf("page %d holds page %d's bytes", id, v.Data[0])
	}
	return v
}

// A page hit since it entered the pool outlives a stream of pages that
// are each used once, however long: the stream evicts its own pages.
func TestHitPageSurvivesOneShotStream(t *testing.T) {
	const share = 4
	p := scanFile(t, 64, Options{PoolPages: share, ReadOnly: true})
	view(t, p, 1).Release()
	view(t, p, 1).Release() // the hit
	for id := PageID(2); id <= 64; id++ {
		view(t, p, id).Release()
	}
	st0 := p.Stats()
	view(t, p, 1).Release()
	if st := p.Stats(); st.Hits != st0.Hits+1 || st.Misses != st0.Misses {
		t.Fatalf("page 1 was evicted by %d one-shot pages through a %d-frame pool", 63, share)
	}
}

// The pool is one budget of PoolPages frames whatever the pages' ids:
// eight pages whose ids are all multiples of eight fit an 8-frame pool,
// so only their first pass misses.
func TestPoolIsOneBudget(t *testing.T) {
	p := scanFile(t, 64, Options{PoolPages: 8, ReadOnly: true})
	for pass := range 4 {
		st0 := p.Stats()
		for id := PageID(8); id <= 64; id += 8 {
			view(t, p, id).Release()
		}
		want := uint64(0)
		if pass == 0 {
			want = 8
		}
		if misses := p.Stats().Misses - st0.Misses; misses != want {
			t.Fatalf("pass %d over eight pages through an 8-frame pool: %d misses, want %d", pass, misses, want)
		}
	}
}

// With every frame of the pool pinned an admission still succeeds, above
// the capacity; with pinned frames around one unpinned, visited frame the
// hand clears its bit, passes the pins and comes back for it; and the
// pool trims back to its capacity as the pins are released.
func TestAllPinnedPoolAdmitsAndTrims(t *testing.T) {
	const share = 2
	p := scanFile(t, 16, Options{PoolPages: share, ReadOnly: true})
	c := p.cache
	var pins []View
	for id := PageID(1); id <= 4; id++ {
		pins = append(pins, view(t, p, id))
	}
	if c.resident != 4 || c.unpinned != 0 {
		t.Fatalf("four pinned pages over a share of %d: %d resident, %d unpinned", share, c.resident, c.unpinned)
	}
	// Pages 1 and 2 come free above the share and go at once; 3 and 4
	// stay pinned, and the share is full.
	for i, want := range []int{3, 2} {
		pins[i].Release()
		if c.resident != want {
			t.Fatalf("release %d: %d resident, want %d", i+1, c.resident, want)
		}
	}
	pins = pins[2:]
	// Page 3 unpinned and visited, the hand on it, 4 pinned: admitting 5
	// clears 3's bit, passes 4, wraps to the oldest frame and evicts 3.
	pins[0].Release()
	view(t, p, 3).Release()
	pins = append(pins[1:], view(t, p, 5))
	if p.frames[3] != nil || c.resident != share {
		t.Fatalf("after admitting 5 beside pinned 4: page 3 resident %v, %d resident", p.frames[3] != nil, c.resident)
	}
	view(t, p, 6).Release() // at share + 1 with both frames pinned: admitted above the share
	if c.resident != share {
		t.Fatalf("a page admitted beside two pinned frames: %d resident, want the share %d", c.resident, share)
	}
	for _, v := range pins {
		v.Release()
	}
	if c.resident != share || c.unpinned != share {
		t.Fatalf("every pin released: %d resident, %d unpinned, want the share %d", c.resident, c.unpinned, share)
	}
}

// A file closes while the hand rests on one of its frames: the hand
// moves on to a frame still in the queue, and none of the evictions
// that another file's readers then make, from three goroutines, touches
// the closed file. Run under -race in CI, ten times over (make chaos).
func TestSharedCacheCloseMovesHand(t *testing.T) {
	for round := 0; round < 5; round++ {
		c := NewCache()
		path := filepath.Join(t.TempDir(), "written.pg")
		a, err := c.Open(path, Options{Create: true, PoolPages: 2})
		if err != nil {
			t.Fatal(err)
		}
		watch := &closeWatch{File: a.f}
		a.f = watch
		for id := PageID(1); id <= 2; id++ {
			appendPage(t, a, binary.BigEndian.AppendUint64(nil, uint64(id)))
			v, err := a.View(id)
			if err != nil {
				t.Fatal(err)
			}
			v.Release()
		}
		b, err := c.Open(scanPath(t, 32), Options{PoolPages: 2, ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		view(t, b, 1).Release()
		view(t, b, 2).Release()
		// The queue is b2 b1 a2 a1, newest first. Admitting b3 evicts a1
		// and leaves the hand on a2.
		view(t, b, 3).Release()
		if c.hand == nil || c.hand.pgr != a || c.hand.id != 2 {
			t.Fatalf("the hand does not rest on the closing file's page 2: %+v", c.hand)
		}

		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		c.mu.Lock()
		for fr := c.head; fr != nil; fr = fr.next {
			if fr.pgr != b {
				t.Errorf("page %d of the closed file is still in the queue", fr.id)
			}
		}
		if c.hand != nil && c.hand.pgr != b {
			t.Errorf("the hand rests on page %d of the closed file", c.hand.id)
		}
		c.mu.Unlock()
		stop := make(chan struct{})
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for r := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; ; n++ {
					select {
					case <-stop:
						return
					default:
					}
					id := PageID(1 + (n*5+r)%32)
					v, err := b.View(id)
					if err != nil {
						errs[r] = err
						return
					}
					if v.Data[0] != byte(id) {
						errs[r] = ErrCorrupt(id)
					}
					v.Release()
				}
			}()
		}
		for n := 0; n < 64; n++ { // more evictions than the pool has frames
			view(t, b, PageID(1+n%32)).Release()
		}
		close(stop)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if watch.writeAfterClose.Load() {
			t.Fatal("an eviction wrote to the file after its Close")
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
