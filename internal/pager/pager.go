// Package pager implements the disk substrate of the reproduction: a
// page-structured file with a fixed page size (4096 bytes in all of the
// paper's experiments, §5 "Parameters"), a SIEVE buffer pool with pin
// counts, and I/O statistics.
//
// The statistics matter beyond bookkeeping: §4.4.1 analyses HD-Index by
// the number of random disk accesses, and §5.2.5 argues the Ptolemaic
// filter is free in I/O terms. The counters here are what let the
// benchmarks report those numbers on any hardware.
//
// The buffer pool, a Cache the files of an index share, is a read cache:
// a page reaches its file in the Write that writes it, one write of the
// whole page, and no frame ever holds bytes the file lacks. It is one
// SIEVE queue of M frames under one mutex, the single buffer of M pages
// the paper prices a query against (§4.4.1); a pager keeps its own page
// map and atomic counters, so a hit is one lock, one map lookup and one
// bit set, and Stats stay exact per file. The read hot path borrows a
// pinned frame zero-copy via View instead of Get's heap-allocated Page
// handle.
//
// A pool miss costs one pread and nothing else: once the cache holds its
// capacity of frames every incoming page lives in a recycled one (the
// eviction victim's, whichever file it belonged to), and the read is
// issued outside the lock into a frame already published as loading, so
// concurrent callers of that page wait for the one read instead of
// repeating it. The price is that a released frame's bytes
// are overwritten by the next miss: a slice borrowed from a View or Page
// is dead at Release.
package pager

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"github.com/hd-index/hdindex/internal/iofault"
)

// DefaultPageSize is the disk page size used throughout the paper.
const DefaultPageSize = 4096

const (
	magic         = "HDIXPAGE"
	version       = 1
	headerLen     = 36 // magic(8) + version(4) + pageSize(4) + pageCount(8) + checksum(8) + metaLen(4)
	offVersion    = 8
	offPageSize   = 12
	offPageCount  = 16
	offChecksum   = 24
	offMetaLen    = 32
	offMeta       = 36
	defaultFrames = 256
)

// Errors returned by the pager.
var (
	ErrBadMagic     = errors.New("pager: not a pager file (bad magic)")
	ErrBadVersion   = errors.New("pager: unsupported file version")
	ErrBadChecksum  = errors.New("pager: superblock checksum mismatch")
	ErrPageRange    = errors.New("pager: page id out of range")
	ErrClosed       = errors.New("pager: file is closed")
	ErrMetaTooLarge = errors.New("pager: metadata exceeds superblock capacity")
	// ErrIO marks a physical read/write/sync failure on the backing
	// file. Every disk error the pager surfaces wraps it, so callers
	// (core's query path, the server's error mapper) can classify disk
	// trouble with errors.Is instead of string matching — and turn it
	// into a structured 503 rather than a panic or an opaque 500.
	ErrIO = errors.New("pager: io error")
)

// PageID identifies a page within a file. Page 0 is the superblock and is
// never handed out.
type PageID uint64

// Stats counts logical and physical page traffic since the last reset.
// Its JSON adds "hit_ratio" (HitRatio).
type Stats struct {
	Reads  uint64 `json:"reads"`  // physical page reads from disk
	Writes uint64 `json:"writes"` // physical page writes to disk
	Hits   uint64 `json:"hits"`   // buffer pool hits
	Misses uint64 `json:"misses"` // buffer pool misses (each implies one Read unless the read failed)
	Allocs uint64 `json:"allocs"` // pages appended to the file
}

// Add accumulates o into s; aggregators (multi-file indexes, sharded
// layouts) sum per-file stats with it.
func (s *Stats) Add(o Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Allocs += o.Allocs
}

// HitRatio returns Hits/(Hits+Misses), or 0 before any pool traffic.
func (s Stats) HitRatio() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// MarshalJSON writes the counters and their hit ratio.
func (s Stats) MarshalJSON() ([]byte, error) {
	type counters Stats // the fields without this method
	return json.Marshal(struct {
		counters
		HitRatio float64 `json:"hit_ratio"`
	}{counters(s), s.HitRatio()})
}

// Options configures Open. Whether a file is writable changes nothing in
// the pool, which only ever holds what the file holds.
type Options struct {
	PageSize   int  // bytes per page; DefaultPageSize if zero
	PoolPages  int  // the pager's share of its cache's frames; 256 if zero or negative
	Create     bool // create (truncate) instead of opening existing
	ReadOnly   bool // open without write permission: Write fails, Flush and Close write nothing
	DisableLRU bool // bypass the SIEVE pool: no page stays past its last Release, every Get is a disk read (paper's "caching off" mode)
}

// Page is a pinned, read-only page in the buffer pool: Get's heap handle
// on the bytes View lends. Callers must Release it when done and must
// not write through Data; a page changes only by Write.
type Page struct {
	ID    PageID
	Data  []byte
	frame *frame
}

// Release unpins the page. The Page must not be used afterwards.
func (p *Page) Release() {
	p.frame.pgr.release(p.frame)
}

// View is a pinned zero-copy borrow of a page's pool frame: the read
// hot path's alternative to Get, with no per-call heap allocation (View
// is a value, not a pointer). Data is the frame's buffer itself — valid
// only until Release, and must not be written through.
type View struct {
	Data []byte
	fr   *frame
}

// Release unpins the viewed frame. The View must not be used afterwards.
func (v View) Release() {
	v.fr.pgr.release(v.fr)
}

type frame struct {
	id      PageID
	pgr     *Pager // the file the page belongs to
	data    []byte
	pins    int
	loading bool   // the miss that admitted it is reading into data outside the cache lock
	err     error  // that read's failure, for the callers that waited on it
	visited bool   // hit since it was admitted or last passed by the hand
	dropped bool   // unmapped while pinned: its pinners keep it until their Release
	prev    *frame // the newer neighbour in the cache's queue
	next    *frame // the older one
}

// counters are a pager's I/O statistics. The fields are atomics so
// Stats() — called twice per query for the QueryStats deltas — never
// takes the cache mutex: a stats read must not contend with the
// searches' getFrame/release traffic on it.
type counters struct {
	reads, writes, hits, misses, allocs atomic.Uint64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Reads:  c.reads.Load(),
		Writes: c.writes.Load(),
		Hits:   c.hits.Load(),
		Misses: c.misses.Load(),
		Allocs: c.allocs.Load(),
	}
}

func (c *counters) reset() {
	c.reads.Store(0)
	c.writes.Store(0)
	c.hits.Store(0)
	c.misses.Store(0)
	c.allocs.Store(0)
}

// Cache is a buffer pool that pagers share, of PoolPages frames per open
// pager: Close drops the pager's frames and takes its share back. A full
// cache evicts by SIEVE (Zhang et al., NSDI 2024), over frames of any
// file: every resident frame waits in one FIFO queue, a hit sets its
// visited bit, and the hand walks from the oldest frame toward the
// newest, passing pinned frames and clearing set bits, to the first
// unpinned frame not visited. A page hit once since it entered outlives
// a stream of pages used once, and a hit writes one bit, not a list.
// Every frame is clean, so an eviction only forgets a page.
//
// mu guards everything here and every open pager's page map and
// in-flight read count.
type Cache struct {
	mu       sync.Mutex
	loaded   sync.Cond // on mu; broadcast whenever a loading frame's read ends
	pages    int       // the capacity: the sum of PoolPages over the open pagers
	resident int       // frames mapped by any pager, each in the queue
	unpinned int       // resident frames without a pin: the evictable ones
	free     []*frame  // unmapped frames kept for the next admission
	head     *frame    // the queue's newest frame
	tail     *frame    // its oldest
	hand     *frame    // where the next eviction's walk starts; nil: at tail
	rec      *recorder // the access trace; nil when none is taken
}

// Pager manages one page file. It is safe for concurrent use: reads go
// through the cache's lock, and only a miss's disk read is issued
// outside it; writes, the superblock and the metadata share one mutex.
type Pager struct {
	f        iofault.File
	pageSize int
	noCache  bool
	readOnly bool

	pageCount atomic.Uint64 // includes superblock; grows only after its page is written
	closed    atomic.Bool

	// state serialises Write, SetMeta, Flush and Close: one writer at a
	// time, and none after the closed flag is set. Get/View never touch
	// it — writing is off the read hot path.
	state sync.Mutex
	meta  []byte
	super []byte // the superblock the file holds, as last read or written

	stats   counters // every page's traffic, the superblock's included
	cache   *Cache
	share   int               // the frames this pager added to the cache's capacity
	frames  map[PageID]*frame // this pager's resident pages; nil once closed. Guarded by cache.mu
	reading int               // reads in flight outside cache.mu; Close waits for zero
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	c := &Cache{}
	c.loaded.L = &c.mu
	return c
}

// resize adds p's share to the capacity as p opens (sign 1), or drops
// p's frames and takes its share back as p closes (sign -1), and evicts
// down to the capacity. Caller holds c.mu, so in a trace the open or
// close falls between two accesses exactly where the Cache made it.
func (c *Cache) resize(p *Pager, sign int) {
	c.pages += sign * p.share
	if c.rec != nil {
		if sign > 0 {
			c.rec.open(p)
		} else {
			c.rec.close(p)
		}
	}
	for _, fr := range p.frames {
		c.drop(fr)
	}
	p.frames = nil
	if sign > 0 {
		p.frames = make(map[PageID]*frame)
	}
	c.trim()
}

// Open creates or opens the page file at path, on a cache of its own.
func Open(path string, opts Options) (*Pager, error) {
	return NewCache().Open(path, opts)
}

// Open creates or opens the page file at path against c, adding
// opts.PoolPages to the cache's capacity.
func (c *Cache) Open(path string, opts Options) (*Pager, error) {
	if opts.PageSize == 0 {
		opts.PageSize = DefaultPageSize
	}
	if opts.PageSize < headerLen+8 {
		return nil, fmt.Errorf("pager: page size %d too small", opts.PageSize)
	}
	if opts.PoolPages <= 0 {
		opts.PoolPages = defaultFrames
	}
	flag := os.O_RDWR
	if opts.ReadOnly {
		flag = os.O_RDONLY
	}
	if opts.Create {
		flag |= os.O_CREATE | os.O_TRUNC
	}
	f, err := iofault.Open(path, flag, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pager: open %s: %w", path, err)
	}
	p := &Pager{
		f:        f,
		pageSize: opts.PageSize,
		noCache:  opts.DisableLRU,
		readOnly: opts.ReadOnly,
		cache:    c,
		share:    opts.PoolPages,
	}
	if opts.Create {
		p.pageCount.Store(1)
		err = p.writeSuperblockLocked()
	} else {
		err = p.readSuperblock()
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	c.mu.Lock()
	c.resize(p, 1)
	c.mu.Unlock()
	return p, nil
}

// writeSuperblockLocked writes the superblock recording the page count
// and meta, unless the file already holds exactly that superblock: a
// file only read is never written. Caller holds p.state (or has
// exclusive access, as during Open).
func (p *Pager) writeSuperblockLocked() error {
	buf := make([]byte, p.pageSize)
	copy(buf, magic)
	binary.BigEndian.PutUint32(buf[offVersion:], version)
	binary.BigEndian.PutUint32(buf[offPageSize:], uint32(p.pageSize))
	binary.BigEndian.PutUint64(buf[offPageCount:], p.pageCount.Load())
	binary.BigEndian.PutUint32(buf[offMetaLen:], uint32(len(p.meta)))
	copy(buf[offMeta:], p.meta)
	binary.BigEndian.PutUint64(buf[offChecksum:], superChecksum(buf))
	if bytes.Equal(buf, p.super) {
		return nil
	}
	if _, err := p.f.WriteAt(buf, 0); err != nil {
		return fmt.Errorf("%w: write superblock: %w", ErrIO, err)
	}
	p.super = buf
	p.stats.writes.Add(1)
	return nil
}

func (p *Pager) readSuperblock() error {
	// Read the fixed header first: the on-disk page size wins over the
	// configured one, so callers need not know it when reopening.
	hdr := make([]byte, headerLen)
	if _, err := p.f.ReadAt(hdr, 0); err != nil {
		return fmt.Errorf("%w: read superblock: %w", ErrIO, err)
	}
	if string(hdr[:8]) != magic {
		return ErrBadMagic
	}
	if v := binary.BigEndian.Uint32(hdr[offVersion:]); v != version {
		return fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	ps := int(binary.BigEndian.Uint32(hdr[offPageSize:]))
	if ps < headerLen+8 {
		return ErrBadChecksum
	}
	// A superblock page past the end of the file is a short read, found
	// before a buffer that size is made.
	if st, err := p.f.Stat(); err != nil || int64(ps) > st.Size() {
		return fmt.Errorf("%w: read superblock: a %d-byte page past the end of the file: %w", ErrIO, ps, cmp.Or(err, io.ErrUnexpectedEOF))
	}
	p.pageSize = ps
	buf := make([]byte, ps)
	if _, err := p.f.ReadAt(buf, 0); err != nil {
		return fmt.Errorf("%w: read superblock: %w", ErrIO, err)
	}
	p.stats.reads.Add(1)
	want := binary.BigEndian.Uint64(buf[offChecksum:])
	if superChecksum(buf) != want {
		return ErrBadChecksum
	}
	count := binary.BigEndian.Uint64(buf[offPageCount:])
	if count == 0 || count > math.MaxInt64/uint64(ps) { // it counts the superblock; offsets fit an int64
		return fmt.Errorf("%w: page count %d", ErrBadChecksum, count)
	}
	p.pageCount.Store(count)
	metaLen := int(binary.BigEndian.Uint32(buf[offMetaLen:]))
	if metaLen > p.pageSize-offMeta {
		return ErrBadChecksum
	}
	p.meta = append([]byte(nil), buf[offMeta:offMeta+metaLen]...)
	p.super = buf
	return nil
}

// superChecksum hashes the superblock with the checksum field zeroed.
func superChecksum(buf []byte) uint64 {
	h := fnv.New64a()
	h.Write(buf[:offChecksum])
	var zero [8]byte
	h.Write(zero[:])
	h.Write(buf[offChecksum+8:])
	return h.Sum64()
}

// PageSize returns the page size in bytes.
func (p *Pager) PageSize() int { return p.pageSize }

// PageCount returns the number of pages, including the superblock.
func (p *Pager) PageCount() uint64 {
	return p.pageCount.Load()
}

// Meta returns a copy of the user metadata stored in the superblock.
func (p *Pager) Meta() []byte {
	p.state.Lock()
	defer p.state.Unlock()
	return append([]byte(nil), p.meta...)
}

// SetMeta stores user metadata (tree headers etc.) in the superblock.
// It is persisted on the next Flush or Close.
func (p *Pager) SetMeta(meta []byte) error {
	p.state.Lock()
	defer p.state.Unlock()
	if len(meta) > p.pageSize-offMeta {
		return ErrMetaTooLarge
	}
	p.meta = append([]byte(nil), meta...)
	return nil
}

// Stats returns a snapshot of the I/O counters, superblock traffic
// included. The counters are atomics, so the read takes no lock. Each
// counter is exact; the snapshot as a whole is taken without a global
// pause, like the per-query deltas consuming it.
func (p *Pager) Stats() Stats { return p.stats.snapshot() }

// ResetStats zeroes the I/O counters; benchmarks call it per query batch.
func (p *Pager) ResetStats() { p.stats.reset() }

// Write writes data, exactly one page, as page id: a page the file has,
// or the next one, which it appends. The page reaches the file in this
// call, one write of the whole page, under the cache lock and after any
// read of it in flight, so no reader sees it torn. A resident copy is
// dropped: later callers read the new bytes, and whoever holds the old
// copy pinned keeps it until their Release. An appended page counts
// only once written. A failed write changes neither the page count nor
// any copy.
func (p *Pager) Write(id PageID, data []byte) error {
	if id == 0 {
		return fmt.Errorf("%w: write of page 0, the superblock", ErrPageRange)
	}
	if p.readOnly {
		return errors.New("pager: write to a read-only file")
	}
	if len(data) != p.pageSize {
		return fmt.Errorf("pager: a %d-byte write to a file of %d-byte pages", len(data), p.pageSize)
	}
	p.state.Lock()
	defer p.state.Unlock()
	if p.closed.Load() {
		return ErrClosed
	}
	count := p.pageCount.Load()
	if uint64(id) > count {
		return fmt.Errorf("%w: write of page %d (have %d)", ErrPageRange, id, count)
	}
	c := p.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	fr := p.frames[id]
	for ; fr != nil && fr.loading; fr = p.frames[id] {
		c.loaded.Wait()
	}
	if _, err := p.f.WriteAt(data, int64(uint64(id))*int64(p.pageSize)); err != nil {
		return fmt.Errorf("%w: write page %d: %w", ErrIO, id, err)
	}
	p.stats.writes.Add(1)
	ev := byte(evWrite)
	if uint64(id) == count {
		ev = evAlloc
		p.stats.allocs.Add(1)
		p.pageCount.Store(count + 1)
	}
	if c.rec != nil {
		c.rec.access(ev, p, id)
	}
	if fr != nil {
		c.drop(fr)
	}
	return nil
}

// Get returns the page with the given id, pinned and read-only.
func (p *Pager) Get(id PageID) (*Page, error) {
	fr, err := p.getFrame(id)
	if err != nil {
		return nil, err
	}
	return &Page{ID: id, Data: fr.data, frame: fr}, nil
}

// View returns a pinned zero-copy view of the page: Get without the
// Page allocation. The caller must Release it and must not write
// through Data.
func (p *Pager) View(id PageID) (View, error) {
	fr, err := p.getFrame(id)
	if err != nil {
		return View{}, err
	}
	return View{Data: fr.data, fr: fr}, nil
}

// getFrame returns the pinned frame for id, reading it from disk on a
// pool miss. The miss publishes its frame pinned and loading, then reads
// with the cache unlocked; whoever asks for the same id meanwhile pins
// that frame, counts a hit and waits on c.loaded, so a page is read
// once however callers interleave. A failed read drops the frame and
// hands every waiter the same error; the next call reads again. Reads
// start only under c.mu with the pager open and are counted in
// p.reading, which is what Close waits on before closing the file.
func (p *Pager) getFrame(id PageID) (*frame, error) {
	c := p.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	if p.closed.Load() {
		return nil, ErrClosed
	}
	if count := p.pageCount.Load(); id == 0 || uint64(id) >= count {
		return nil, fmt.Errorf("%w: %d (have %d)", ErrPageRange, id, count)
	}
	if fr, ok := p.frames[id]; ok {
		p.stats.hits.Add(1)
		if c.rec != nil {
			c.rec.access(evHit, p, id)
		}
		fr.visited = true
		if fr.pins == 0 {
			c.unpinned--
		}
		fr.pins++
		for fr.loading {
			c.loaded.Wait()
		}
		if fr.err != nil {
			return nil, c.unpinFailed(fr)
		}
		return fr, nil
	}
	p.stats.misses.Add(1)
	fr := c.evictFor(p.pageSize)
	if c.rec != nil {
		c.rec.access(evMiss, p, id)
	}
	*fr = frame{id: id, pgr: p, data: fr.data, pins: 1, loading: true}
	p.frames[id] = fr
	c.push(fr)
	p.reading++
	c.mu.Unlock()
	_, err := p.f.ReadAt(fr.data, int64(uint64(id))*int64(p.pageSize))
	c.mu.Lock()
	p.reading--
	fr.loading = false
	c.loaded.Broadcast() // the woken run once mu is released
	if err != nil {
		fr.err = fmt.Errorf("%w: read page %d: %w", ErrIO, id, err)
		if c.rec != nil {
			c.rec.access(evFail, p, id)
		}
		c.drop(fr)
		return nil, c.unpinFailed(fr)
	}
	p.stats.reads.Add(1)
	return fr, nil
}

// unpinFailed drops one pin of a frame whose read failed and returns
// the read's error; the last pin out parks the frame. Caller holds c.mu.
func (c *Cache) unpinFailed(fr *frame) error {
	if fr.pins--; fr.pins == 0 {
		c.park(fr)
	}
	return fr.err
}

// evictFor returns an unmapped frame of pageSize bytes for a page about
// to enter, evicting unpinned frames while the cache is at its capacity:
// the victim's frame, else a parked one, and a new frame and buffer only
// when there is neither — below capacity, or everything pinned. Caller
// holds c.mu.
func (c *Cache) evictFor(pageSize int) *frame {
	var fr *frame
	if c.resident >= c.pages && c.unpinned > 0 {
		fr = c.evict()
	} else if n := len(c.free); n > 0 {
		fr, c.free = c.free[n-1], c.free[:n-1]
	}
	if fr == nil || len(fr.data) != pageSize { // its last file may have had another page size
		fr = &frame{data: make([]byte, pageSize)}
	}
	return fr
}

// evict walks the hand from where it rests toward the newest frame,
// going on from the oldest past the newest: it passes pinned frames,
// clears the visited bit of an unpinned one that has it, and stops at
// the first unpinned frame without it. It unmaps that victim and returns
// it; the hand rests on the next newer frame. Caller holds c.mu, with
// c.unpinned > 0, so the walk ends within two turns.
func (c *Cache) evict() *frame {
	victim := cmp.Or(c.hand, c.tail)
	for victim.pins > 0 || victim.visited {
		if victim.pins == 0 {
			victim.visited = false
		}
		victim = cmp.Or(victim.prev, c.tail)
	}
	c.hand = victim
	delete(victim.pgr.frames, victim.id)
	c.unlink(victim)
	c.unpinned--
	return victim
}

// trim evicts frames while the cache is over its capacity and drops
// parked frames beyond it. A pinned frame stays until a later release or
// admission. Caller holds c.mu.
func (c *Cache) trim() {
	for c.resident > c.pages && c.unpinned > 0 {
		c.evict()
	}
	if keep := max(0, c.pages-c.resident); len(c.free) > keep {
		clear(c.free[keep:])
		c.free = c.free[:keep]
	}
}

// drop unmaps fr outside any eviction: its file closed, a write replaced
// its page, its read failed, or caching is off and its last pin went. An
// unpinned frame is parked; a pinned one stays with its pinners and goes
// when the last of them releases it. Caller holds c.mu.
func (c *Cache) drop(fr *frame) {
	delete(fr.pgr.frames, fr.id)
	c.unlink(fr)
	if fr.pins > 0 {
		fr.dropped = true
		return
	}
	c.unpinned--
	c.park(fr)
}

// park keeps an unmapped, unpinned frame for the next admission, unless
// the cache already owns its capacity of frames. Caller holds c.mu.
func (c *Cache) park(fr *frame) {
	if c.resident+len(c.free) < c.pages {
		c.free = append(c.free, fr)
	}
}

func (p *Pager) release(fr *frame) {
	c := p.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	// A dropped frame is no page's copy any more: the trace and the
	// queue have already let it go.
	if fr.pins--; fr.dropped {
		return
	}
	if c.rec != nil {
		c.rec.access(evRelease, p, fr.id)
	}
	if fr.pins > 0 {
		return
	}
	c.unpinned++
	switch {
	case p.noCache:
		// Caching off (§5 "for fairness, we turn off buffering and
		// caching"): the frame goes at once, parked for the next Get,
		// which in this mode is always a miss.
		c.drop(fr)
	case c.resident > c.pages:
		// A cache that outgrew its capacity while every frame was
		// pinned shrinks back as its frames come free.
		c.trim()
	}
}

// push admits fr, just mapped, at the newest end of the queue.
func (c *Cache) push(fr *frame) {
	fr.next = c.head
	if c.head != nil {
		c.head.prev = fr
	} else {
		c.tail = fr
	}
	c.head = fr
	c.resident++
}

// unlink takes fr, just unmapped, out of the queue; a hand resting on it
// moves on to the next newer frame.
func (c *Cache) unlink(fr *frame) {
	if c.hand == fr {
		c.hand = fr.prev
	}
	if fr.prev != nil {
		fr.prev.next = fr.next
	} else {
		c.head = fr.next
	}
	if fr.next != nil {
		fr.next.prev = fr.prev
	} else {
		c.tail = fr.prev
	}
	fr.prev, fr.next = nil, nil
	c.resident--
}

// Flush writes the superblock if the page count or the metadata changed
// since the file last held one. Pages need no flush: Write put each on
// the file. A read-only pager has nothing to flush.
func (p *Pager) Flush() error {
	p.state.Lock()
	defer p.state.Unlock()
	switch {
	case p.closed.Load():
		return ErrClosed
	case p.readOnly:
		return nil
	}
	return p.writeSuperblockLocked()
}

// Sync flushes and fsyncs the file.
func (p *Pager) Sync() error {
	if err := p.Flush(); err != nil {
		return err
	}
	if err := p.f.Sync(); err != nil {
		return fmt.Errorf("%w: sync: %w", ErrIO, err)
	}
	return nil
}

// Close writes the superblock if it changed, closes the file, and gives
// its frames and its share back to the cache; a file that was only read
// is not written. The pager is unusable afterwards. The closed flag is
// set first, under the lock a Write holds, so no write follows it; the
// cache is then waited on until no read of this file is in flight. A
// read starts only under the cache lock with the flag clear, so past
// that wait none can start: every read finishes against the still-open
// file and later callers observe ErrClosed.
func (p *Pager) Close() error {
	p.state.Lock()
	if p.closed.Load() {
		p.state.Unlock()
		return nil
	}
	p.closed.Store(true)
	var err error
	if !p.readOnly {
		err = p.writeSuperblockLocked()
	}
	p.state.Unlock()
	c := p.cache
	c.mu.Lock()
	for p.reading > 0 {
		c.loaded.Wait()
	}
	c.resize(p, -1)
	c.mu.Unlock()
	if e := p.f.Close(); e != nil && err == nil {
		err = e
	}
	return err
}

// FileSize returns the current size of the backing file in bytes.
func (p *Pager) FileSize() int64 {
	return int64(p.pageCount.Load()) * int64(p.pageSize)
}
