package pager

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/hd-index/hdindex/internal/iofault"
)

// traceEvent is one decoded trace record: k.id is 0 for an open or a close.
type traceEvent struct {
	op      byte
	k       pageKey
	share   int  // an open's
	noCache bool // an open's
}

// traceArgs is the number of uvarints after each event byte.
var traceArgs = map[byte]int{evOpen: 3, evClose: 1, evHit: 2, evMiss: 2, evRelease: 2, evAlloc: 2, evWrite: 2, evFail: 2}

// maxTraceShare bounds an open's share, so no sum of shares overflows.
const maxTraceShare = 1 << 30

// readTrace decodes the trace b, checking it as it goes, and hands each
// event to fn. It returns the number of queues the recording pool split
// its frames over. A cut record, an unknown event, a file index not
// open, page 0, an open out of sequence, more than 64 queues, an alloc
// of a page the file already had or a release of a page no event pinned
// is an error, so a trace it accepts replays against any policy without
// a panic. A write or a failed read takes the page's pins with its copy,
// as a close takes its file's.
func readTrace(b []byte, fn func(traceEvent)) (queues int, err error) {
	queues, b, err = traceHeader(b)
	if err != nil {
		return 0, err
	}
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, false
		}
		b = b[n:]
		return v, true
	}
	var ok bool
	var open []bool
	var top []PageID // per file, the highest page an event named
	pins := map[pageKey]int{}
	for rec := 0; len(b) > 0; rec++ {
		ev := traceEvent{op: b[0]}
		b = b[1:]
		var args [3]uint64
		nargs := traceArgs[ev.op]
		if nargs == 0 {
			return 0, fmt.Errorf("trace: record %d: unknown event %q", rec, ev.op)
		}
		for i := range nargs {
			if args[i], ok = next(); !ok {
				return 0, fmt.Errorf("trace: record %d (%q) cut short", rec, ev.op)
			}
		}
		if ev.op == evOpen {
			if args[0] != uint64(len(open)) || args[1] == 0 || args[1] > maxTraceShare || args[2] > 1 {
				return 0, fmt.Errorf("trace: record %d: open of file %d, share %d, flags %d", rec, args[0], args[1], args[2])
			}
			ev.k.file, ev.share, ev.noCache = len(open), int(args[1]), args[2] == 1
			open = append(open, true)
			top = append(top, 0)
			fn(ev)
			continue
		}
		if args[0] >= uint64(len(open)) || !open[args[0]] {
			return 0, fmt.Errorf("trace: record %d (%q): file %d is not open", rec, ev.op, args[0])
		}
		ev.k.file = int(args[0])
		if ev.op == evClose {
			open[ev.k.file] = false
			for k := range pins {
				if k.file == ev.k.file {
					delete(pins, k)
				}
			}
			fn(ev)
			continue
		}
		if ev.k.id = PageID(args[1]); ev.k.id == 0 {
			return 0, fmt.Errorf("trace: record %d (%q): page 0", rec, ev.op)
		}
		if ev.op == evAlloc && ev.k.id <= top[ev.k.file] {
			return 0, fmt.Errorf("trace: record %d: alloc of page %d of file %d, which it already had", rec, ev.k.id, ev.k.file)
		}
		top[ev.k.file] = max(top[ev.k.file], ev.k.id)
		switch ev.op {
		case evHit, evMiss:
			pins[ev.k]++
		case evWrite, evFail:
			delete(pins, ev.k)
		case evRelease:
			if pins[ev.k]--; pins[ev.k] < 0 {
				return 0, fmt.Errorf("trace: record %d: release of page %d of file %d, which no event pinned", rec, ev.k.id, ev.k.file)
			} else if pins[ev.k] == 0 {
				delete(pins, ev.k)
			}
		}
		fn(ev)
	}
	return queues, nil
}

// traceHeader returns the queue count a trace records and its records.
func traceHeader(b []byte) (int, []byte, error) {
	if !bytes.HasPrefix(b, []byte(traceMagic)) {
		return 0, nil, errors.New("trace: bad magic")
	}
	n, w := binary.Uvarint(b[len(traceMagic):])
	if w <= 0 || n == 0 || n > 64 || n&(n-1) != 0 {
		return 0, nil, errors.New("trace: bad queue count")
	}
	return int(n), b[len(traceMagic)+w:], nil
}

// replay runs the trace b against newPolicy at the frames each open
// brought, split over queues page-id stripes (1: the Cache's one
// queue), and returns the model that ran it; onEvent, when set, sees
// every event after the model took it, whether an access hit, and the
// pages the event evicted.
func replay(b []byte, queues int, newPolicy func() policy, onEvent func(m *poolModel, ev traceEvent, hit bool, evicted []pageKey)) (*poolModel, error) {
	m := newPoolModel(queues, newPolicy)
	var evicted []pageKey
	m.evicted = func(k pageKey) { evicted = append(evicted, k) }
	// Each event reaches the model only once it has been checked.
	_, err := readTrace(b, func(ev traceEvent) {
		evicted = evicted[:0]
		hit := false
		switch ev.op {
		case evOpen:
			m.open(ev.k.file, ev.share, ev.noCache)
		case evClose:
			m.close(ev.k.file)
		case evHit, evMiss:
			hit = m.get(ev.k)
		case evRelease:
			m.release(ev.k)
		case evAlloc:
			m.alloc(ev.k)
		case evWrite:
			m.write(ev.k)
		case evFail:
			m.drop(ev.k)
		}
		if onEvent != nil {
			onEvent(m, ev, hit, evicted)
		}
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// misses sums the pool misses of every file the model saw.
func (m *poolModel) misses() uint64 {
	var n uint64
	for _, f := range m.files {
		n += f.st.Misses
	}
	return n
}

// replayPolicies are the policies a trace is replayed against.
var replayPolicies = []struct {
	name string
	new  func() policy
}{
	{"LRU", newLRU},
	{"CLOCK", newCLOCK},
	{"2Q", new2Q},
	{"SIEVE", newSIEVE},
}

// committedTrace is a trace the LRU pool wrote: a small index of 8 trees
// built over 4 000 SIFT-like vectors, reopened at 8 pages per file, and
// 40 queries at α = γ = 256 asked twice (see testdata/README.md).
const committedTrace = "testdata/query.trace"

// The committed trace replays against LRU, split over the eight stripes
// of the pool that recorded it, to the misses that pool took, so the
// replayer is exact; every policy's count is logged.
func TestReplayCommittedTrace(t *testing.T) {
	b, err := os.ReadFile(committedTrace)
	if err != nil {
		t.Fatal(err)
	}
	var recorded uint64
	queues, err := readTrace(b, func(ev traceEvent) {
		if ev.op == evMiss {
			recorded++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range replayPolicies {
		m, err := replay(b, queues, p.new, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%-5s %6d misses", p.name, m.misses())
		if p.name == "LRU" && m.misses() != recorded {
			t.Fatalf("the LRU replay takes %d misses, the recording LRU pool took %d", m.misses(), recorded)
		}
	}
}

// Driven through the committed trace's events, the Cache hits and
// misses where the SIEVE replay at one queue does, and evicts the pages
// the replay evicts, each at the access the replay evicts it on.
func TestCacheFollowsReplay(t *testing.T) {
	b, err := os.ReadFile(committedTrace)
	if err != nil {
		t.Fatal(err)
	}
	// One file per open, as long as the pages the trace names.
	pages := map[int]PageID{}
	if _, err := readTrace(b, func(ev traceEvent) {
		if ev.op == evAlloc {
			t.Fatal("the committed trace allocates; the drive below reads only")
		}
		pages[ev.k.file] = max(pages[ev.k.file], ev.k.id)
	}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := func(f int) string { return filepath.Join(dir, fmt.Sprintf("f%d.pg", f)) }
	for f, n := range pages {
		p, err := Open(path(f), Options{Create: true, PageSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		for range n {
			appendPage(t, p, nil)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}

	c := NewCache()
	pgrs := map[int]*Pager{}
	views := map[pageKey][]View{}
	var misses uint64
	m, err := replay(b, 1, newSIEVE, func(m *poolModel, ev traceEvent, hit bool, evicted []pageKey) {
		p := pgrs[ev.k.file]
		switch ev.op {
		case evOpen:
			p, err := c.Open(path(ev.k.file), Options{PoolPages: ev.share, DisableLRU: ev.noCache, ReadOnly: true})
			if err != nil {
				t.Fatal(err)
			}
			pgrs[ev.k.file] = p
		case evClose:
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			for k := range views {
				if k.file == ev.k.file {
					delete(views, k)
				}
			}
		case evHit, evMiss:
			_, resident := p.frames[ev.k.id]
			if resident != hit {
				t.Fatalf("after %d misses: page %d of file %d: the Cache hit %v, the replay %v", misses, ev.k.id, ev.k.file, resident, hit)
			}
			v, err := p.View(ev.k.id)
			if err != nil {
				t.Fatal(err)
			}
			views[ev.k] = append(views[ev.k], v)
		case evRelease:
			vs := views[ev.k]
			vs[len(vs)-1].Release()
			views[ev.k] = vs[:len(vs)-1]
		}
		if (ev.op == evHit || ev.op == evMiss) && !hit {
			misses++
		}
		for _, k := range evicted {
			if pgrs[k.file].frames[k.id] != nil {
				t.Fatalf("after %d misses: the replay evicted page %d of file %d, the Cache kept it", misses, k.id, k.file)
			}
		}
		if got, want := c.resident, len(m.stripes[0].frames); got != want {
			t.Fatalf("after %d misses: the Cache holds %d pages, the replay %d", misses, got, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.misses() != misses {
		t.Fatalf("the Cache took %d misses, the replay %d", misses, m.misses())
	}
}

// A trace the recorder writes decodes, and its SIEVE replay takes the
// misses the Cache took: a reader and a writer share a cache, pages stay
// pinned across other accesses, the writer appends pages and replaces
// ones that are resident and pinned, one of the reader's reads fails,
// and the reader closes and reopens mid-run.
func TestRecordedTraceReplays(t *testing.T) {
	var trace bytes.Buffer
	c := NewCache()
	c.record(&trace)
	rpath := scanPath(t, 40)
	// Armed before the reader opens: its 60th read after the superblock's
	// two fails, once.
	restore := iofault.SetGlobal(iofault.NewInjector(iofault.Rule{PathGlob: "scan.pg", Op: iofault.OpRead, AfterCalls: 62, Once: true}))
	defer restore()
	failed := 0
	reader, err := c.Open(rpath, Options{PoolPages: 3, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	writer, err := c.Open(filepath.Join(t.TempDir(), "w.pg"), Options{Create: true, PoolPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	var misses uint64
	rng := rand.New(rand.NewSource(3))
	var pins []View
	for op := 0; op < 2000; op++ {
		switch r := rng.Intn(10); {
		case op%500 == 499:
			for _, v := range pins {
				v.Release()
			}
			pins = pins[:0]
			misses += reader.Stats().Misses
			if err := reader.Close(); err != nil {
				t.Fatal(err)
			}
			if reader, err = c.Open(rpath, Options{PoolPages: 3, ReadOnly: true}); err != nil {
				t.Fatal(err)
			}
		case len(pins) == 4 || r < 4 && len(pins) > 0:
			i := rng.Intn(len(pins))
			pins[i].Release()
			pins = append(pins[:i], pins[i+1:]...)
		case r == 4 && writer.PageCount() < 8:
			appendPage(t, writer, nil)
		case r == 4:
			if err := writer.Write(PageID(1+rng.Intn(7)), make([]byte, writer.PageSize())); err != nil {
				t.Fatal(err)
			}
		case r == 5 && writer.PageCount() > 1:
			v, err := writer.View(PageID(1 + rng.Intn(int(writer.PageCount())-1)))
			if err != nil {
				t.Fatal(err)
			}
			pins = append(pins, v)
		default:
			v, err := reader.View(PageID(1 + rng.Intn(40)))
			if errors.Is(err, ErrIO) && failed == 0 {
				failed++
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			pins = append(pins, v)
		}
	}
	if failed != 1 {
		t.Fatal("the injected read failure never fired")
	}
	misses += reader.Stats().Misses + writer.Stats().Misses
	for _, v := range pins {
		v.Release()
	}
	replayMatches(t, c, &trace, misses)
}

// replayMatches flushes c's trace and holds its SIEVE replay to the
// misses the Cache took.
func replayMatches(t *testing.T, c *Cache, trace *bytes.Buffer, misses uint64) {
	t.Helper()
	if err := c.rec.flush(); err != nil {
		t.Fatal(err)
	}
	m, err := replay(trace.Bytes(), 1, newSIEVE, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.misses() != misses {
		t.Fatalf("the replay of the recorded trace takes %d misses, the Cache took %d", m.misses(), misses)
	}
}

// Files open, close and get written beside readers on goroutines of their
// own, all on one recorded cache: however they interleave, the SIEVE
// replay of the trace takes exactly the misses the Cache took. Run under
// -race in CI, ten times over (make chaos).
func TestSharedCacheTraceReplaysExactly(t *testing.T) {
	var trace bytes.Buffer
	c := NewCache()
	c.record(&trace)
	rpath := scanPath(t, 64)
	w, err := c.Open(filepath.Join(t.TempDir(), "w.pg"), Options{Create: true, PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	for range 8 {
		appendPage(t, w, nil)
	}
	var misses atomic.Uint64
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for r := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			var p *Pager
			var pins []View
			for op := 0; op < 1500 && errs[r] == nil; op++ {
				if op%300 == 0 { // close and reopen this reader's file
					for _, v := range pins {
						v.Release()
					}
					pins = pins[:0]
					if p != nil {
						misses.Add(p.Stats().Misses)
						if errs[r] = p.Close(); errs[r] != nil {
							return
						}
					}
					if p, errs[r] = c.Open(rpath, Options{PoolPages: 2 + r, ReadOnly: true}); errs[r] != nil {
						return
					}
				}
				if len(pins) == 2 {
					pins[0].Release()
					pins = pins[1:]
				}
				src := p
				if rng.Intn(2) == 0 {
					src = w
				}
				v, err := src.View(PageID(1 + rng.Intn(int(src.PageCount())-1)))
				if err != nil {
					errs[r] = err
					break
				}
				pins = append(pins, v)
			}
			for _, v := range pins {
				v.Release()
			}
			misses.Add(p.Stats().Misses)
			if err := p.Close(); errs[r] == nil {
				errs[r] = err
			}
		}()
	}
	rng := rand.New(rand.NewSource(9))
	for n := 0; n < 600; n++ {
		id := PageID(1 + rng.Intn(8)) // mostly resident, often pinned
		if n%50 == 0 {
			id = PageID(w.PageCount())
		}
		if err := w.Write(id, make([]byte, w.PageSize())); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	misses.Add(w.Stats().Misses)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	replayMatches(t, c, &trace, misses.Load())
}

// FuzzTrace feeds the trace decoder arbitrary bytes: it answers with an
// error or a trace every policy replays without a panic. Seeded with the
// committed trace's head, a trace cut inside a record, an unknown event,
// page 0, an access to a file never opened, and a write and a failed
// read dropping a pinned page, whose release is then not recorded,
// before an append of a page the file already had.
func FuzzTrace(f *testing.F) {
	b, err := os.ReadFile(committedTrace)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b[:min(len(b), 512)])
	head := []byte(traceMagic + "\x02" + "o\x00\x03\x00")
	f.Add(append(bytes.Clone(head), "m\x00\x05r\x00\x05h\x00\x05m\x00\x07c\x00"...))
	f.Add(append(bytes.Clone(head), "m\x00"...))
	f.Add(append(bytes.Clone(head), "x\x00\x05"...))
	f.Add(append(bytes.Clone(head), "h\x00\x00"...))
	f.Add(append(bytes.Clone(head), "m\x01\x05"...))
	f.Add(append(bytes.Clone(head), "a\x00\x01m\x00\x01w\x00\x01r\x00\x01m\x00\x01f\x00\x01a\x00\x01"...))
	f.Fuzz(func(t *testing.T, b []byte) {
		queues, err := readTrace(b, func(traceEvent) {})
		if err != nil {
			return
		}
		for _, p := range replayPolicies {
			if _, err := replay(b, queues, p.new, nil); err != nil {
				t.Fatalf("%s: %v on a trace the decoder accepted", p.name, err)
			}
		}
	})
}
