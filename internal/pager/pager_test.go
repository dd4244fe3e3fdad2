package pager

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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

// appendPage writes a page holding data, then zeros, at the end of p's
// file and returns its id.
func appendPage(t testing.TB, p *Pager, data []byte) PageID {
	t.Helper()
	buf := make([]byte, p.PageSize())
	copy(buf, data)
	id := PageID(p.PageCount())
	if err := p.Write(id, buf); err != nil {
		t.Fatal(err)
	}
	return id
}

// Writing past the end allocates the page; it reads back after a reopen,
// and a write that is neither an append nor of a page the file has, or
// not of a whole page, is refused.
func TestAllocGetRoundTrip(t *testing.T) {
	p, path := newTemp(t, Options{PoolPages: 4})
	if id := appendPage(t, p, []byte("hello page")); id != 1 {
		t.Fatalf("first page id = %d, want 1", id)
	}
	for _, id := range []PageID{0, 3} {
		if err := p.Write(id, make([]byte, p.PageSize())); !errors.Is(err, ErrPageRange) {
			t.Fatalf("write of page %d in a file of 2 pages: err = %v, want ErrPageRange", id, err)
		}
	}
	if err := p.Write(1, []byte("short")); err == nil {
		t.Fatal("a write of less than a page succeeded")
	}
	if st := p.Stats(); st.Writes != 2 || st.Allocs != 1 || p.PageCount() != 2 {
		t.Fatalf("stats %+v, %d pages; want 2 writes (superblock, page), 1 alloc, 2 pages", st, p.PageCount())
	}
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

func TestEvictionAndStats(t *testing.T) {
	p, _ := newTemp(t, Options{PoolPages: 2})
	defer p.Close()
	var ids []PageID
	for i := 0; i < 4; i++ {
		ids = append(ids, appendPage(t, p, binary.BigEndian.AppendUint64(nil, uint64(i))))
	}
	// Pool holds 2 of the 4; reading them in turn must miss.
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
	id := appendPage(t, p, nil)
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
	appendPage(t, p, nil)
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
	appendPage(f, p, []byte("x"))
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
	appendPage(t, p, []byte("x"))
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
	if err := p.Write(PageID(p.PageCount()), make([]byte, p.PageSize())); !errors.Is(err, ErrClosed) {
		t.Error("an append after close must fail")
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
	appendPage(t, p, nil)
	p.Close()
	ro, err := Open(path, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if err := ro.Write(PageID(ro.PageCount()), make([]byte, ro.PageSize())); err == nil {
		t.Error("an append to a read-only pager must fail")
	}
	g, err := ro.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	g.Release()
}

// check compares the cache and its open pagers with the model: every
// file's counters, the capacity, the resident set and its pin counts,
// and the queue over all files with its visited bits, hand and unpinned
// count — so every eviction, of which page of which file, is predicted,
// not just counted. It also holds the cache to owning no more frames
// than its capacity unless every frame it owns is pinned.
func (m *poolModel) check(t *testing.T, c *Cache, pgrs []*Pager, base []Stats, op int) {
	t.Helper()
	s := &m.stripes[0]
	if c.pages != m.pages || c.pages != s.cap || c.resident != len(s.frames) {
		t.Fatalf("op %d: %d resident frames of capacity %d, model %d of %d", op, c.resident, c.pages, len(s.frames), s.cap)
	}
	for f, mf := range m.files {
		if !mf.open {
			continue
		}
		want := base[f]
		want.Add(mf.st)
		if got := pgrs[f].Stats(); got != want {
			t.Fatalf("op %d file %d: stats %+v, model %+v", op, f, got, want)
		}
	}
	for k, f := range s.frames {
		if fr := pgrs[k.file].frames[k.id]; fr == nil || fr.id != k.id || fr.pgr != pgrs[k.file] || fr.pins != f.pins {
			t.Fatalf("op %d: page %d of file %d is %+v, model %+v", op, k.id, k.file, fr, f)
		}
	}
	sieve := s.pol.(*sievePolicy)
	fr := c.head
	for e := sieve.q.Front(); e != nil; e, fr = e.Next(), fr.next {
		if k := e.Value.(pageKey); fr == nil || fr.id != k.id || fr.pgr != pgrs[k.file] || fr.visited != sieve.visited[k] {
			t.Fatalf("op %d: the queue diverged from the model at page %d of file %d", op, k.id, k.file)
		}
		if (c.hand == fr) != (sieve.hand == e) {
			t.Fatalf("op %d: the hand diverged from the model at page %d of file %d", op, e.Value.(pageKey).id, e.Value.(pageKey).file)
		}
	}
	if fr != nil || (c.hand == nil) != (sieve.hand == nil) || c.unpinned != s.unpinned {
		t.Fatalf("op %d: %d frames past the model's queue, hand %v (model %v), %d unpinned (model %d)", op, c.resident-len(s.frames), c.hand != nil, sieve.hand != nil, c.unpinned, s.unpinned)
	}
	if tail := c.tail; (tail == nil) != (sieve.q.Len() == 0) || tail != nil && tail.next != nil {
		t.Fatalf("op %d: the queue's tail is not its oldest frame", op)
	}
	if held := c.resident + len(c.free); held > c.pages && (len(c.free) > 0 || c.unpinned > 0) {
		t.Fatalf("op %d: holds %d frames (%d parked, %d unpinned), capacity %d", op, held, len(c.free), c.unpinned, c.pages)
	}
}

// poolFile is one file of a randomized model run.
type poolFile struct {
	share   int
	noCache bool
}

// A random View/Get/Write/Release sequence, with up to six pages pinned
// at once over small pools (so the cache overshoots its capacity and
// shrinks back), against the reference pool and an in-memory copy of every page:
// counters, evictions, the queue and the hand must follow the model op
// by op, a write appends or replaces a page without touching a pinned
// copy of it, contents must match while pinned, and every file must end
// up byte-identical to its copy. The one-file cases are Open's own
// cache; the others put two and three files on one shared cache and
// close and reopen files mid-sequence, so capacity moves with them.
func TestRandomizedAgainstModel(t *testing.T) {
	cases := []struct {
		name  string
		cache func() *Cache // nil: Open's cache of its own
		files []poolFile
	}{
		{"cached", nil, []poolFile{{3, false}}},
		{"nocache", nil, []poolFile{{3, true}}},
		{"two-files", NewCache, []poolFile{{6, false}, {10, false}}},
		{"three-files", NewCache, []poolFile{{3, false}, {4, false}, {5, true}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { randomizedAgainstModel(t, c.cache, c.files) })
	}
}

func randomizedAgainstModel(t *testing.T, newC func() *Cache, files []poolFile) {
	dir := t.TempDir()
	pgrs := make([]*Pager, len(files))
	base := make([]Stats, len(files))
	content := make([]map[PageID][]byte, len(files))
	var c *Cache
	var m *poolModel
	open := func(f int, create bool) {
		opts := Options{PageSize: 256, PoolPages: files[f].share, DisableLRU: files[f].noCache, Create: create}
		path := filepath.Join(dir, fmt.Sprintf("f%d.pg", f))
		var err error
		if newC == nil {
			pgrs[f], err = Open(path, opts)
		} else {
			pgrs[f], err = c.Open(path, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		if c == nil {
			c = pgrs[f].cache
		}
		if m == nil {
			m = newPoolModel(1, newSIEVE)
		}
		base[f] = pgrs[f].Stats()
		m.open(f, files[f].share, files[f].noCache)
	}
	if newC != nil {
		c = newC()
	}
	for f := range files {
		content[f] = make(map[PageID][]byte)
		open(f, true)
	}
	m.check(t, c, pgrs, base, -1)

	rng := rand.New(rand.NewSource(7))
	type pin struct {
		k          pageKey
		data, want []byte // the pinned bytes, and what they held when pinned
		release    func()
		dropped    bool // a write replaced the page, and the pool let this copy go
	}
	var pins []pin
	unpin := func(i int) {
		if !bytes.Equal(pins[i].data, pins[i].want) {
			t.Fatalf("page %d of file %d changed under its pin", pins[i].k.id, pins[i].k.file)
		}
		pins[i].release()
		if !pins[i].dropped {
			m.release(pins[i].k)
		}
		pins = append(pins[:i], pins[i+1:]...)
	}
	for op := 0; op < 3000; op++ {
		f := rng.Intn(len(files))
		if !m.files[f].open {
			if rng.Intn(4) == 0 {
				open(f, false)
				m.check(t, c, pgrs, base, op)
			}
			continue
		}
		p := pgrs[f]
		id := PageID(1 + rng.Intn(int(p.PageCount())))
		k := pageKey{f, id}
		switch r := rng.Intn(10); {
		case len(files) > 1 && rng.Intn(40) == 0:
			// Close the file mid-sequence, its own pins released first.
			for i := len(pins) - 1; i >= 0; i-- {
				if pins[i].k.file == f {
					unpin(i)
				}
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			m.close(f)
		case len(pins) == 6 || (r < 4 && len(pins) > 0):
			unpin(rng.Intn(len(pins)))
		case r < 5 && p.PageCount() < 60 || p.PageCount() == 1:
			k.id = PageID(p.PageCount())
			content[f][k.id] = make([]byte, 256)
			rng.Read(content[f][k.id])
			if err := p.Write(k.id, content[f][k.id]); err != nil {
				t.Fatal(err)
			}
			m.alloc(k)
		case id == PageID(p.PageCount()):
			continue
		case r < 7:
			v, err := p.View(id)
			if err != nil {
				t.Fatal(err)
			}
			m.get(k)
			if !bytes.Equal(v.Data, content[f][id]) {
				t.Fatalf("op %d: view of page %d of file %d diverged from model", op, id, f)
			}
			pins = append(pins, pin{k, v.Data, bytes.Clone(v.Data), v.Release, false})
		case r < 9:
			pg, err := p.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			m.get(k)
			if !bytes.Equal(pg.Data, content[f][id]) {
				t.Fatalf("op %d: page %d of file %d diverged from model", op, id, f)
			}
			pins = append(pins, pin{k, pg.Data, bytes.Clone(pg.Data), pg.Release, false})
		default:
			content[f][id] = make([]byte, 256)
			rng.Read(content[f][id])
			if err := p.Write(id, content[f][id]); err != nil {
				t.Fatal(err)
			}
			m.write(k)
			for i := range pins {
				pins[i].dropped = pins[i].dropped || pins[i].k == k
			}
		}
		m.check(t, c, pgrs, base, op)
	}
	for len(pins) > 0 {
		unpin(len(pins) - 1)
	}
	for f := range files {
		if m.files[f].open {
			if err := pgrs[f].Close(); err != nil {
				t.Fatal(err)
			}
			m.close(f)
		}
	}
	if c.pages != 0 {
		t.Fatalf("every file closed, the cache still counts %d pages", c.pages)
	}
	for f := range files {
		p2, err := Open(filepath.Join(dir, fmt.Sprintf("f%d.pg", f)), Options{PoolPages: 3})
		if err != nil {
			t.Fatal(err)
		}
		for id, want := range content[f] {
			pg, err := p2.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pg.Data, want) {
				t.Fatalf("page %d of file %d: content mismatch after reopen", id, f)
			}
			pg.Release()
		}
		p2.Close()
	}
}

func TestFileSize(t *testing.T) {
	p, _ := newTemp(t, Options{PageSize: 512})
	defer p.Close()
	for i := 0; i < 3; i++ {
		appendPage(t, p, nil)
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
	id := appendPage(b, p, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, _ := p.Get(id)
		g.Release()
	}
}

// BenchmarkViewCached is BenchmarkGetCached on the read hot path: a View
// hit and its Release, no Page allocated.
func BenchmarkViewCached(b *testing.B) {
	p, _ := newTemp(b, Options{})
	defer p.Close()
	id := appendPage(b, p, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := p.View(id)
		v.Release()
	}
}

// View must return the frame's own buffer (zero-copy), pin it, and
// release cleanly.
func TestViewZeroCopy(t *testing.T) {
	p, path := newTemp(t, Options{PoolPages: 8})
	id := appendPage(t, p, []byte("view me"))
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
	p, _ := newTemp(t, Options{PoolPages: 2})
	id := appendPage(t, p, []byte("pinned-view"))
	for i := 0; i < 20; i++ {
		appendPage(t, p, nil)
	}
	v, err := p.View(id)
	if err != nil {
		t.Fatal(err)
	}
	for i := PageID(2); i <= 21; i++ {
		x, err := p.View(i)
		if err != nil {
			t.Fatal(err)
		}
		x.Release()
	}
	if string(v.Data[:11]) != "pinned-view" {
		t.Fatal("viewed frame content lost under pool pressure")
	}
	v.Release()
}

// Stats are exact: a known access sequence produces known totals.
func TestShardedStatsExact(t *testing.T) {
	p, path := newTemp(t, Options{PoolPages: 64})
	const pages = 20
	ids := make([]PageID, pages)
	for i := range ids {
		ids[i] = appendPage(t, p, nil)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := Open(path, Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
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
