package pager

import (
	"bytes"
	"container/list"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func newTemp(t testing.TB, opts Options) (*Pager, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.pg")
	opts.Create = true
	p, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p, path
}

// newOneStripe is newTemp with the whole pool in one lock stripe, so
// eviction follows one LRU order instead of one per stripe.
func newOneStripe(t testing.TB, opts Options) *Pager {
	t.Helper()
	p, _ := newTemp(t, opts)
	p.initShards(1, opts.PoolPages)
	return p
}

func TestAllocGetRoundTrip(t *testing.T) {
	p, path := newTemp(t, Options{PoolPages: 4})
	pg, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if pg.ID != 1 {
		t.Fatalf("first alloc id = %d, want 1", pg.ID)
	}
	copy(pg.Data, "hello page")
	pg.MarkDirty()
	pg.Release()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	pg2, err := p2.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(pg2.Data, []byte("hello page")) {
		t.Fatalf("page content lost: %q", pg2.Data[:16])
	}
	pg2.Release()
}

func TestMetaPersistence(t *testing.T) {
	p, path := newTemp(t, Options{})
	meta := []byte("tree-root=42")
	if err := p.SetMeta(meta); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := Open(path, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if !bytes.Equal(p2.Meta(), meta) {
		t.Fatalf("meta = %q, want %q", p2.Meta(), meta)
	}
}

func TestMetaTooLarge(t *testing.T) {
	p, _ := newTemp(t, Options{PageSize: 128})
	defer p.Close()
	if err := p.SetMeta(make([]byte, 128)); !errors.Is(err, ErrMetaTooLarge) {
		t.Fatalf("err = %v, want ErrMetaTooLarge", err)
	}
}

func TestGetOutOfRange(t *testing.T) {
	p, _ := newTemp(t, Options{})
	defer p.Close()
	if _, err := p.Get(0); !errors.Is(err, ErrPageRange) {
		t.Error("superblock must not be gettable")
	}
	if _, err := p.Get(7); !errors.Is(err, ErrPageRange) {
		t.Error("unallocated page must not be gettable")
	}
}

func TestLRUEvictionAndStats(t *testing.T) {
	p, _ := newTemp(t, Options{PoolPages: 2})
	defer p.Close()
	var ids []PageID
	for i := 0; i < 4; i++ {
		pg, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint64(pg.Data, uint64(i))
		pg.MarkDirty()
		ids = append(ids, pg.ID)
		pg.Release()
	}
	// Pool holds 2 of the 4; reading the evicted ones must miss.
	st0 := p.Stats()
	for i, id := range ids {
		pg, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := binary.BigEndian.Uint64(pg.Data); got != uint64(i) {
			t.Fatalf("page %d content = %d, want %d", id, got, i)
		}
		pg.Release()
	}
	st := p.Stats()
	if st.Misses == st0.Misses {
		t.Error("expected buffer pool misses after eviction")
	}
	if st.Reads == 0 {
		t.Error("expected physical reads")
	}
}

func TestDisableLRUCountsEveryRead(t *testing.T) {
	p, _ := newTemp(t, Options{DisableLRU: true})
	defer p.Close()
	pg, _ := p.Alloc()
	id := pg.ID
	pg.MarkDirty()
	pg.Release()
	p.ResetStats()
	for i := 0; i < 3; i++ {
		g, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		g.Release()
	}
	st := p.Stats()
	if st.Misses != 3 || st.Reads != 3 {
		t.Fatalf("no-cache stats = %+v, want 3 misses/reads", st)
	}
	if st.Hits != 0 {
		t.Fatalf("no-cache must never hit, got %d", st.Hits)
	}
}

func TestBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.pg")
	if err := os.WriteFile(path, make([]byte, DefaultPageSize), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestCorruptedSuperblock(t *testing.T) {
	p, path := newTemp(t, Options{})
	p.SetMeta([]byte("important"))
	p.Close()
	// Flip a byte inside the metadata region.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[offMeta] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
}

func TestTruncatedFile(t *testing.T) {
	p, path := newTemp(t, Options{})
	pg, _ := p.Alloc()
	pg.MarkDirty()
	pg.Release()
	p.Close()
	if err := os.Truncate(path, DefaultPageSize/2); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); err == nil {
		t.Fatal("opening truncated file must fail")
	}
}

// FuzzPagerSuperblock opens a pager over arbitrary page-0 bytes: Open
// answers with an error or with a pager whose page count and metadata
// are consistent — never a panic, nor a buffer sized by a corrupt
// header. With fix set the checksum is recomputed over the page the
// header's page size names, so mutations get past it to the fields it
// guards. Seeded from a file written the way TestCorruptedSuperblock's
// is, whole and cut short.
func FuzzPagerSuperblock(f *testing.F) {
	p, path := newTemp(f, Options{PageSize: 512})
	if err := p.SetMeta([]byte("important")); err != nil {
		f.Fatal(err)
	}
	pg, err := p.Alloc()
	if err != nil {
		f.Fatal(err)
	}
	copy(pg.Data, "x")
	pg.Release()
	if err := p.Close(); err != nil {
		f.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(file, false)
	f.Add(file, true)
	f.Add(file[:512], true)
	f.Add(file[:100], true)
	f.Fuzz(func(t *testing.T, file []byte, fix bool) {
		if fix && len(file) >= headerLen {
			if ps := int(binary.BigEndian.Uint32(file[offPageSize:])); ps >= headerLen+8 && ps <= len(file) {
				binary.BigEndian.PutUint64(file[offChecksum:], superChecksum(file[:ps]))
			}
		}
		path := filepath.Join(t.TempDir(), "page0.pg")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := Open(path, Options{ReadOnly: true, PoolPages: 4})
		if err != nil {
			return
		}
		defer p.Close()
		ps, count := p.PageSize(), p.PageCount()
		if ps < headerLen+8 || ps > len(file) {
			t.Fatalf("page size %d from a %d-byte file", ps, len(file))
		}
		if count < 1 || p.FileSize()/int64(ps) != int64(count) {
			t.Fatalf("page count %d at %d-byte pages spans %d bytes", count, ps, p.FileSize())
		}
		if meta := p.Meta(); len(meta) > ps-offMeta || !bytes.Equal(meta, file[offMeta:offMeta+len(meta)]) {
			t.Fatalf("%d bytes of metadata in a %d-byte superblock, not the ones it holds", len(meta), ps)
		}
		for id := PageID(1); uint64(id) < min(count, 8); id++ {
			if v, err := p.View(id); err == nil {
				v.Release()
			}
		}
	})
}

func TestOpenWithDifferentConfiguredPageSize(t *testing.T) {
	p, path := newTemp(t, Options{PageSize: 512})
	pg, _ := p.Alloc()
	copy(pg.Data, "x")
	pg.MarkDirty()
	pg.Release()
	p.Close()
	// Opening with the default page size must self-correct to 512.
	p2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if p2.PageSize() != 512 {
		t.Fatalf("page size = %d, want 512", p2.PageSize())
	}
	g, err := p2.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Data[0] != 'x' {
		t.Fatal("content lost across page-size self-correction")
	}
	g.Release()
}

func TestClosedErrors(t *testing.T) {
	p, _ := newTemp(t, Options{})
	p.Close()
	if _, err := p.Alloc(); !errors.Is(err, ErrClosed) {
		t.Error("Alloc after close must fail")
	}
	if _, err := p.Get(1); !errors.Is(err, ErrClosed) {
		t.Error("Get after close must fail")
	}
	if err := p.Close(); err != nil {
		t.Error("double close must be a no-op")
	}
}

func TestReadOnly(t *testing.T) {
	p, path := newTemp(t, Options{})
	pg, _ := p.Alloc()
	pg.MarkDirty()
	pg.Release()
	p.Close()
	ro, err := Open(path, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if _, err := ro.Alloc(); err == nil {
		t.Error("Alloc on read-only pager must fail")
	}
	g, err := ro.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	g.Release()
}

// poolModel is the reference buffer pool: per stripe a map of resident
// pages and a list of the unpinned ones, most recently released first. A
// miss reads, then evicts from the list's back while the stripe is at its
// share — the parent implementation's order of business, frame reuse and
// unlocked reads unknown to it.
type poolModel struct {
	noCache bool
	stripes []modelStripe
	st      Stats
}

type modelStripe struct {
	cap    int
	frames map[PageID]*modelFrame
	lru    *list.List // of PageID
}

type modelFrame struct {
	pins  int
	dirty bool
	elem  *list.Element
}

func (m *poolModel) stripe(id PageID) *modelStripe { return &m.stripes[int(id)%len(m.stripes)] }

func (m *poolModel) admit(id PageID, dirty bool) {
	s := m.stripe(id)
	for len(s.frames) >= s.cap && s.lru.Len() > 0 {
		victim := s.lru.Remove(s.lru.Back()).(PageID)
		if s.frames[victim].dirty {
			m.st.Writes++
		}
		delete(s.frames, victim)
	}
	s.frames[id] = &modelFrame{pins: 1, dirty: dirty}
}

func (m *poolModel) get(id PageID) {
	s := m.stripe(id)
	if f := s.frames[id]; f != nil {
		m.st.Hits++
		if f.pins == 0 {
			s.lru.Remove(f.elem)
		}
		f.pins++
		return
	}
	m.st.Misses++
	m.st.Reads++
	m.admit(id, false)
}

func (m *poolModel) alloc(id PageID) {
	m.st.Allocs++
	m.admit(id, true)
}

func (m *poolModel) release(id PageID) {
	s := m.stripe(id)
	f := s.frames[id]
	if f.pins--; f.pins > 0 {
		return
	}
	if !m.noCache {
		f.elem = s.lru.PushFront(id)
		return
	}
	if f.dirty {
		m.st.Writes++
	}
	delete(s.frames, id)
}

// check compares the pager with the model: every counter, and per stripe
// the resident set, its pin counts and dirty bits, and the LRU order —
// so every eviction is predicted, not just counted. It also holds the
// pool to owning no more frames than its share unless pins force it.
func (m *poolModel) check(t *testing.T, p *Pager, base Stats, op int) {
	t.Helper()
	want := base
	want.Add(m.st)
	if got := p.Stats(); got != want {
		t.Fatalf("op %d: stats %+v, model %+v", op, got, want)
	}
	for i := range p.shards {
		sh, s := &p.shards[i], &m.stripes[i]
		if len(sh.frames) != len(s.frames) {
			t.Fatalf("op %d stripe %d: %d resident frames, model %d", op, i, len(sh.frames), len(s.frames))
		}
		for id, f := range s.frames {
			if fr := sh.frames[id]; fr == nil || fr.id != id || fr.pins != f.pins || fr.dirty != f.dirty {
				t.Fatalf("op %d: page %d is %+v, model %+v", op, id, fr, f)
			}
		}
		fr := sh.lruHead
		for e := s.lru.Front(); e != nil; e, fr = e.Next(), fr.next {
			if fr == nil || fr.id != e.Value.(PageID) {
				t.Fatalf("op %d stripe %d: LRU order diverged from the model at page %d", op, i, e.Value)
			}
		}
		if fr != nil || sh.lruLen != s.lru.Len() {
			t.Fatalf("op %d stripe %d: LRU holds %d frames, model %d", op, i, sh.lruLen, s.lru.Len())
		}
		if len(sh.free) > 0 && len(sh.frames)+len(sh.free) > sh.cap {
			t.Fatalf("op %d stripe %d: %d frames parked beside %d resident, share %d", op, i, len(sh.free), len(sh.frames), sh.cap)
		}
	}
}

// A random View/Get/Alloc/MarkDirty/Release sequence, with up to six
// pages pinned at once over a three-frame pool (so it overshoots its
// share and shrinks back), against the reference pool and an in-memory
// copy of every page: counters, evictions and LRU order must follow the
// model op by op, contents must match while pinned, and the file must
// end up byte-identical to the copy.
func TestRandomizedAgainstModel(t *testing.T) {
	for name, noCache := range map[string]bool{"lru": false, "nocache": true} {
		t.Run(name, func(t *testing.T) { randomizedAgainstModel(t, noCache) })
	}
}

func randomizedAgainstModel(t *testing.T, noCache bool) {
	p, path := newTemp(t, Options{PageSize: 256, PoolPages: 3, DisableLRU: noCache})
	m := &poolModel{noCache: noCache, stripes: make([]modelStripe, len(p.shards))}
	for i := range m.stripes {
		m.stripes[i] = modelStripe{cap: p.shards[i].cap, frames: map[PageID]*modelFrame{}, lru: list.New()}
	}
	base := p.Stats()
	rng := rand.New(rand.NewSource(7))
	content := make(map[PageID][]byte)
	type pin struct {
		id      PageID
		release func()
	}
	var pins []pin
	for op := 0; op < 2000; op++ {
		id := PageID(1 + rng.Intn(int(p.PageCount())))
		switch r := rng.Intn(10); {
		case len(pins) == 6 || (r < 4 && len(pins) > 0):
			i := rng.Intn(len(pins))
			pins[i].release()
			m.release(pins[i].id)
			pins = append(pins[:i], pins[i+1:]...)
		case r < 5 && p.PageCount() < 60 || p.PageCount() == 1:
			pg, err := p.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pg.Data, make([]byte, 256)) {
				t.Fatalf("op %d: Alloc returned a page that is not zeroed", op)
			}
			rng.Read(pg.Data)
			pg.MarkDirty()
			content[pg.ID] = bytes.Clone(pg.Data)
			m.alloc(pg.ID)
			pins = append(pins, pin{pg.ID, pg.Release})
		case id == PageID(p.PageCount()):
			continue
		case r < 8:
			v, err := p.View(id)
			if err != nil {
				t.Fatal(err)
			}
			m.get(id)
			if !bytes.Equal(v.Data, content[id]) {
				t.Fatalf("op %d: view of page %d diverged from model", op, id)
			}
			pins = append(pins, pin{id, v.Release})
		default:
			pg, err := p.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			m.get(id)
			if !bytes.Equal(pg.Data, content[id]) {
				t.Fatalf("op %d: page %d diverged from model", op, id)
			}
			rng.Read(pg.Data[:16])
			pg.MarkDirty()
			copy(content[id], pg.Data[:16])
			m.stripe(id).frames[id].dirty = true
			pins = append(pins, pin{id, pg.Release})
		}
		m.check(t, p, base, op)
	}
	for _, h := range pins {
		h.release()
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := Open(path, Options{PoolPages: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	for id, want := range content {
		pg, err := p2.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pg.Data, want) {
			t.Fatalf("page %d content mismatch after reopen", id)
		}
		pg.Release()
	}
}

func TestFileSize(t *testing.T) {
	p, _ := newTemp(t, Options{PageSize: 512})
	defer p.Close()
	for i := 0; i < 3; i++ {
		pg, _ := p.Alloc()
		pg.Release()
	}
	if got := p.FileSize(); got != 4*512 {
		t.Fatalf("FileSize = %d, want %d", got, 4*512)
	}
}

func BenchmarkGetCached(b *testing.B) {
	dir := b.TempDir()
	p, err := Open(filepath.Join(dir, "b.pg"), Options{Create: true})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	pg, _ := p.Alloc()
	id := pg.ID
	pg.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, _ := p.Get(id)
		g.Release()
	}
}

// View must return the frame's own buffer (zero-copy), pin it, and
// release cleanly.
func TestViewZeroCopy(t *testing.T) {
	p, path := newTemp(t, Options{PoolPages: 8})
	pg, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	copy(pg.Data, "view me")
	pg.MarkDirty()
	id := pg.ID
	pg.Release()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := Open(path, Options{PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	v, err := p2.View(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(v.Data[:7]) != "view me" {
		t.Fatalf("view content = %q", v.Data[:7])
	}
	// The view and a Get of the same page must share storage: that is
	// the zero-copy contract.
	g, err := p2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if &v.Data[0] != &g.Data[0] {
		t.Fatal("View and Get returned different buffers for one page")
	}
	g.Release()
	v.Release()
}

// A pinned view must survive pool pressure, like a pinned Page.
func TestViewPinSurvivesPressure(t *testing.T) {
	p := newOneStripe(t, Options{PoolPages: 2})
	pg, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	copy(pg.Data, "pinned-view")
	pg.MarkDirty()
	id := pg.ID
	pg.Release()
	v, err := p.View(id)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		x, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		x.MarkDirty()
		x.Release()
	}
	if string(v.Data[:11]) != "pinned-view" {
		t.Fatal("viewed frame content lost under pool pressure")
	}
	v.Release()
}

// The aggregate Stats must be the exact sum of per-shard counters: a
// known access sequence produces known totals regardless of sharding.
func TestShardedStatsExact(t *testing.T) {
	p, path := newTemp(t, Options{PoolPages: 64})
	const pages = 20
	ids := make([]PageID, pages)
	for i := range ids {
		pg, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		pg.MarkDirty()
		ids[i] = pg.ID
		pg.Release()
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := Open(path, Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := len(p2.shards); got != 8 {
		t.Fatalf("%d pool stripes, want 8", got)
	}
	p2.ResetStats()
	for _, id := range ids { // cold: all misses
		v, err := p2.View(id)
		if err != nil {
			t.Fatal(err)
		}
		v.Release()
	}
	for _, id := range ids { // warm: all hits
		v, err := p2.View(id)
		if err != nil {
			t.Fatal(err)
		}
		v.Release()
	}
	st := p2.Stats()
	if st.Misses != pages || st.Reads != pages || st.Hits != pages {
		t.Fatalf("stats = %+v, want %d misses/reads and %d hits", st, pages, pages)
	}
	if got := st.HitRatio(); got != 0.5 {
		t.Fatalf("HitRatio = %v, want 0.5", got)
	}
}

// The stripe count is clamped to the pool size and rounded down to a
// power of two so the shard selector can be a mask, and the stripes'
// capacities sum to the pool's.
func TestPoolShardsClamp(t *testing.T) {
	cases := []struct{ pages, want int }{
		{256, 8}, // the default
		{6, 4},   // clamped to the pool size, rounded down to a power of two
		{2, 2},   // clamped to the pool size
		{1, 1},   // degenerate pool
	}
	for _, c := range cases {
		p, _ := newTemp(t, Options{PoolPages: c.pages})
		capacity := 0
		for i := range p.shards {
			capacity += p.shards[i].cap
		}
		if got := len(p.shards); got != c.want || capacity != c.pages {
			t.Errorf("PoolPages=%d: %d stripes holding %d frames, want %d holding %d",
				c.pages, got, capacity, c.want, c.pages)
		}
		p.Close()
	}
}
