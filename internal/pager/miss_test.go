package pager

import (
	"bytes"
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hd-index/hdindex/internal/iofault"
)

// scanFile writes a file of n data pages, page id filled with byte(id),
// and reopens it with opts.
func scanFile(t testing.TB, n int, opts Options) *Pager {
	t.Helper()
	p, err := Open(scanPath(t, n), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// scanPath writes scanFile's file and returns its path.
func scanPath(t testing.TB, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scan.pg")
	p, err := Open(path, Options{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= n; id++ {
		appendPage(t, p, bytes.Repeat([]byte{byte(id)}, p.PageSize()))
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// viewAll pins and releases every page once, in id order: repeated over
// a file larger than the pool, every View is a miss (no page is hit
// while resident, so the pool evicts in admission order).
func viewAll(t testing.TB, p *Pager) {
	for id := PageID(1); uint64(id) < p.PageCount(); id++ {
		v, err := p.View(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.Data[0] != byte(id) {
			t.Fatalf("page %d holds page %d's bytes", id, v.Data[0])
		}
		v.Release()
	}
}

// A steady-state miss allocates nothing: the incoming page takes the
// victim's frame, or with caching off the frame its own previous
// release parked.
func TestMissAllocatesNothing(t *testing.T) {
	for name, opts := range map[string]Options{
		"cached":  {PoolPages: 16, ReadOnly: true},
		"nocache": {PoolPages: 16, ReadOnly: true, DisableLRU: true},
	} {
		t.Run(name, func(t *testing.T) {
			p := scanFile(t, 4*opts.PoolPages, opts)
			viewAll(t, p) // fill the pool: the only frames this pager ever allocates
			p.ResetStats()
			if avg := testing.AllocsPerRun(5, func() { viewAll(t, p) }); avg != 0 {
				t.Fatalf("%v allocations per scan of %d missing pages, want 0", avg, 4*opts.PoolPages)
			}
			if st := p.Stats(); st.Hits != 0 || st.Misses != st.Reads || st.Misses != uint64(6*4*opts.PoolPages) {
				t.Fatalf("the scan was not all misses: %+v", st)
			}
		})
	}
}

// gatedFile holds every ReadAt until the test closes gate, so a test
// decides what happens while a read is in flight, and notes a read that
// reached the file after Close did.
type gatedFile struct {
	iofault.File
	gate           chan struct{}
	closed         atomic.Bool
	readAfterClose atomic.Bool
}

func (g *gatedFile) ReadAt(b []byte, off int64) (int, error) {
	<-g.gate
	if g.closed.Load() {
		g.readAfterClose.Store(true)
	}
	return g.File.ReadAt(b, off)
}

func (g *gatedFile) Close() error {
	g.closed.Store(true)
	return g.File.Close()
}

func gate(p *Pager) *gatedFile {
	g := &gatedFile{File: p.f, gate: make(chan struct{})}
	p.f = g
	return g
}

// waitFor polls cond, under p's cache lock, until it holds.
func waitFor(t *testing.T, p *Pager, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		p.cache.mu.Lock()
		ok := cond()
		p.cache.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the pool to reach the expected state")
		}
	}
}

// viewConcurrently has n goroutines View page id at once, opens the gate
// once all n hold a pin on its loading frame, and returns what each saw.
func viewConcurrently(t *testing.T, p *Pager, g *gatedFile, id PageID, n int) ([][]byte, []error) {
	t.Helper()
	data, errs := make([][]byte, n), make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := p.View(id)
			if errs[i] = err; err == nil {
				data[i] = bytes.Clone(v.Data)
				v.Release()
			}
		}(i)
	}
	waitFor(t, p, func() bool { return p.frames[id] != nil && p.frames[id].pins == n })
	close(g.gate)
	wg.Wait()
	return data, errs
}

// However many callers want one cold page at once, it is read once: the
// first is the miss, the rest hit its loading frame and wait for it.
func TestConcurrentMissReadsOnce(t *testing.T) {
	p := scanFile(t, 4, Options{PoolPages: 8, ReadOnly: true})
	g := gate(p)
	p.ResetStats()
	data, errs := viewConcurrently(t, p, g, 3, 16)
	for i := range data {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bytes.Equal(data[i], bytes.Repeat([]byte{3}, p.PageSize())) {
			t.Fatalf("caller %d saw the wrong bytes", i)
		}
	}
	if st := p.Stats(); st.Reads != 1 || st.Misses != 1 || st.Hits != 15 {
		t.Fatalf("stats = %+v, want 1 read, 1 miss, 15 hits", st)
	}
}

// A failed read fails everyone who waited on it with the one error,
// leaves nothing resident, keeps the frame, and the next call reads again.
func TestFailedReadWithWaiters(t *testing.T) {
	// Open's two superblock reads pass; the third read — the page — fails.
	restore := iofault.SetGlobal(iofault.NewInjector(iofault.Rule{
		PathGlob: "scan.pg", Op: iofault.OpRead, AfterCalls: 2, Once: true,
	}))
	defer restore()
	p := scanFile(t, 4, Options{PoolPages: 8, ReadOnly: true})
	g := gate(p)
	p.ResetStats()
	_, errs := viewConcurrently(t, p, g, 3, 16)
	for i, err := range errs {
		if !errors.Is(err, ErrIO) || err != errs[0] {
			t.Fatalf("caller %d: err = %v, want the read's ErrIO (%v)", i, err, errs[0])
		}
	}
	c := p.cache
	if len(p.frames) != 0 || c.resident != 0 || len(c.free) != 1 {
		t.Fatalf("after the failed read: %d resident frames, %d parked; want 0 and 1", c.resident, len(c.free))
	}
	v, err := p.View(3)
	if err != nil {
		t.Fatal(err)
	}
	if v.Data[0] != 3 {
		t.Fatal("re-read returned the wrong bytes")
	}
	v.Release()
	if st := p.Stats(); st.Reads != 1 || st.Misses != 2 || st.Hits != 15 || len(c.free) != 0 {
		t.Fatalf("stats = %+v (%d parked), want 1 read, 2 misses, 15 hits, the parked frame reused", st, len(c.free))
	}
}

// A failed page write returns ErrIO to its writer and changes nothing
// else: the page count stays where it was, a resident copy stays
// resident with its bytes, and a Close with nothing new to record
// writes nothing, so it succeeds on a file that takes no writes.
func TestFailedWriteChangesNothing(t *testing.T) {
	path := scanPath(t, 2)
	// Armed before the open, so the file is opened through the injector.
	restore := iofault.SetGlobal(iofault.NewInjector(iofault.Rule{PathGlob: "scan.pg", Op: iofault.OpWrite}))
	defer restore()
	p, err := Open(path, Options{PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.View(1)
	if err != nil {
		t.Fatal(err)
	}
	v.Release()
	p.ResetStats()
	for _, id := range []PageID{1, 3} { // a replacement and an append
		if err := p.Write(id, bytes.Repeat([]byte{9}, p.PageSize())); !errors.Is(err, ErrIO) {
			t.Fatalf("write of page %d to a file that fails writes: err = %v, want ErrIO", id, err)
		}
	}
	if n := p.PageCount(); n != 3 {
		t.Fatalf("%d pages after a failed append, want 3", n)
	}
	if fr := p.frames[1]; fr != v.fr || !bytes.Equal(fr.data, bytes.Repeat([]byte{1}, p.PageSize())) {
		t.Fatal("a failed write changed or dropped the resident copy of its page")
	}
	view(t, p, 1).Release()
	if st := p.Stats(); st != (Stats{Hits: 1}) {
		t.Fatalf("stats after two failed writes and a view = %+v, want one hit and nothing else", st)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close of a file whose count and meta did not change: %v", err)
	}
}

// Close waits for a read in flight outside the cache lock: the reader
// gets its page from the still-open file, later callers ErrClosed.
func TestCloseWaitsForInflightRead(t *testing.T) {
	for _, readOnly := range []bool{true, false} {
		p := scanFile(t, 4, Options{PoolPages: 8, ReadOnly: readOnly})
		g := gate(p)
		readErr := make(chan error, 1)
		go func() {
			v, err := p.View(3)
			if err == nil && v.Data[0] != 3 {
				err = errors.New("wrong bytes")
			}
			readErr <- err
		}()
		waitFor(t, p, func() bool { return p.reading == 1 })
		closed := make(chan error, 1)
		go func() { closed <- p.Close() }()
		waitFor(t, p, p.closed.Load)
		select {
		case <-closed:
			t.Fatal("Close returned with a read in flight")
		case <-time.After(50 * time.Millisecond):
		}
		if _, err := p.View(2); !errors.Is(err, ErrClosed) {
			t.Fatalf("View during Close: err = %v, want ErrClosed", err)
		}
		close(g.gate)
		if err := <-closed; err != nil {
			t.Fatal(err)
		}
		if err := <-readErr; err != nil {
			t.Fatalf("the in-flight read: %v", err)
		}
		if g.readAfterClose.Load() {
			t.Fatal("the file was closed under the read")
		}
	}
}

var sinkByte byte

// BenchmarkViewMiss is the steady-state miss: a cyclic scan of a file 4×
// the pool, so every View evicts, recycles the victim's frame and reads.
func BenchmarkViewMiss(b *testing.B) {
	const pool = 64
	p := scanFile(b, 4*pool, Options{PoolPages: pool, ReadOnly: true})
	viewAll(b, p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := p.View(PageID(1 + i%(4*pool)))
		if err != nil {
			b.Fatal(err)
		}
		sinkByte = v.Data[0]
		v.Release()
	}
}

// BenchmarkViewMissParallel is the same scan shared by GOMAXPROCS
// goroutines: misses on different pages overlap their reads.
func BenchmarkViewMissParallel(b *testing.B) {
	const pool = 64
	p := scanFile(b, 4*pool, Options{PoolPages: pool, ReadOnly: true})
	viewAll(b, p)
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			v, err := p.View(PageID(1 + next.Add(1)%(4*pool)))
			if err != nil {
				b.Error(err)
				return
			}
			v.Release()
		}
	})
}
