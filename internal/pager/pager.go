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
// whole page, and no frame ever holds bytes the file lacks. It is sharded
// into lock-striped SIEVE segments keyed by page id, so concurrent
// searches never contend on one global mutex; a pager keeps its own page
// map and counters per stripe, so a hit is one lock, one map lookup and
// one bit set, and Stats stay exact per file. The read hot path borrows a
// pinned frame zero-copy via View instead of Get's heap-allocated Page
// handle.
//
// A pool miss costs one pread and nothing else: once a stripe holds its
// capacity share of frames every incoming page lives in a recycled one
// (the eviction victim's, whichever file it belonged to), and the read is
// issued outside the stripe lock into a frame already published as
// loading, so concurrent callers of that page wait for the one read
// instead of repeating it. The price is that a released frame's bytes
// are overwritten by the next miss: a slice borrowed from a View or Page
// is dead at Release.
package pager

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/bits"
	"os"
	"sync"
	"sync/atomic"

	"github.com/hd-index/hdindex/internal/iofault"
)

// DefaultPageSize is the disk page size used throughout the paper.
const DefaultPageSize = 4096

const (
	magic             = "HDIXPAGE"
	version           = 1
	headerLen         = 36 // magic(8) + version(4) + pageSize(4) + pageCount(8) + checksum(8) + metaLen(4)
	offVersion        = 8
	offPageSize       = 12
	offPageCount      = 16
	offChecksum       = 24
	offMetaLen        = 32
	offMeta           = 36
	defaultFrames     = 256
	defaultPoolShards = 8
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
type Stats struct {
	Reads  uint64 // physical page reads from disk
	Writes uint64 // physical page writes to disk
	Hits   uint64 // buffer pool hits
	Misses uint64 // buffer pool misses (each implies one Read unless the read failed)
	Allocs uint64 // pages appended to the file
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
	loading bool   // the miss that admitted it is reading into data outside the stripe lock
	err     error  // that read's failure, for the callers that waited on it
	visited bool   // hit since it was admitted or last passed by the hand
	dropped bool   // unmapped while pinned: its pinners keep it until their Release
	prev    *frame // the newer neighbour in the stripe's queue
	next    *frame // the older one
}

// counters is one stripe's share of a pager's I/O statistics. The
// fields are atomics so Stats() — called twice per query for the
// QueryStats deltas — never touches the stripe mutexes: a stats sweep
// must not contend with the searches' getFrame/release traffic on them.
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
// stripe evicts by SIEVE (Zhang et al., NSDI 2024), over frames of any
// file: every resident frame waits in one FIFO queue, a hit sets its
// visited bit, and the stripe's hand walks from the oldest frame toward
// the newest, passing pinned frames and clearing set bits, to the first
// unpinned frame not visited. A page hit once since it entered outlives
// a stream of pages used once, and a hit writes one bit, not a list.
// Every frame is clean, so an eviction only forgets a page.
type Cache struct {
	pages   int // the sum of PoolPages over the open pagers; changed under every stripe lock
	stripes []stripe
	mask    uint64    // len(stripes)-1; len is a power of two
	rec     *recorder // the access trace; nil when none is taken
}

// stripe is one lock stripe of a Cache: the queue, parked frames and
// capacity share of every file's pages whose id maps to it, and mu,
// which also guards each pager's fileStripe of it.
type stripe struct {
	mu       sync.Mutex
	loaded   sync.Cond // on mu; broadcast whenever a loading frame's read ends
	cap      int
	resident int      // frames mapped by any pager, each in the queue
	unpinned int      // resident frames without a pin: the evictable ones
	free     []*frame // unmapped frames kept for the next admission
	head     *frame   // the queue's newest frame
	tail     *frame   // its oldest
	hand     *frame   // where the next eviction's walk starts; nil: at tail
}

// fileStripe is one pager's part of a cache stripe.
type fileStripe struct {
	frames  map[PageID]*frame // nil once the pager has closed
	reading int               // reads in flight outside mu; Close waits for zero
	stats   counters
}

// Pager manages one page file. It is safe for concurrent use: readers
// of distinct cache stripes proceed in parallel; writes, the superblock
// and the metadata share one mutex.
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
	state      sync.Mutex
	meta       []byte
	super      []byte   // the superblock the file holds, as last read or written
	superStats counters // superblock traffic (page 0 never enters the cache)

	cache   *Cache
	share   int          // the frames this pager added to the cache's capacity
	stripes []fileStripe // this pager's part of each cache stripe
}

// NewCache returns an empty cache of eight lock stripes.
func NewCache() *Cache { return newCache(defaultPoolShards) }

// newCache makes a cache of n lock stripes rounded down to a power of
// two, so the stripe of a page is a mask, not a modulo.
func newCache(n int) *Cache {
	pow := 1 << (bits.Len(uint(n)) - 1) // n >= 1
	c := &Cache{stripes: make([]stripe, pow), mask: uint64(pow - 1)}
	for i := range c.stripes {
		c.stripes[i].loaded.L = &c.stripes[i].mu
	}
	return c
}

// resize adds p's share to the capacity as p opens (sign 1), or drops
// p's frames and takes its share back as p closes (sign -1). It splits
// the capacity over the stripes exactly — the first pages%n take one
// extra frame — and evicts a stripe left over its share down to it. It
// holds every stripe lock throughout, so in a trace the open or close
// falls between two of any stripe's accesses exactly where the Cache
// made it, and two resizes never interleave.
func (c *Cache) resize(p *Pager, sign int) {
	for i := range c.stripes {
		c.stripes[i].mu.Lock()
	}
	c.pages += sign * p.share
	if c.rec != nil {
		if sign > 0 {
			c.rec.open(p)
		} else {
			c.rec.close(p)
		}
	}
	n := len(c.stripes)
	for i := range c.stripes {
		st, fs := &c.stripes[i], &p.stripes[i]
		for _, fr := range fs.frames {
			st.drop(fs, fr)
		}
		fs.frames = nil
		if sign > 0 {
			fs.frames = make(map[PageID]*frame)
		}
		st.cap = c.pages / n
		if i < c.pages%n {
			st.cap++
		}
		st.trim()
	}
	for i := range c.stripes {
		c.stripes[i].mu.Unlock()
	}
}

// Open creates or opens the page file at path, on a cache of its own:
// at most eight stripes, and no more than opts.PoolPages.
func Open(path string, opts Options) (*Pager, error) {
	if opts.PoolPages <= 0 {
		opts.PoolPages = defaultFrames
	}
	return newCache(min(defaultPoolShards, opts.PoolPages)).Open(path, opts)
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
		stripes:  make([]fileStripe, len(c.stripes)),
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
	c.resize(p, 1)
	return p, nil
}

func (p *Pager) stripeOf(id PageID) (*stripe, *fileStripe) {
	i := uint64(id) & p.cache.mask
	return &p.cache.stripes[i], &p.stripes[i]
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
	p.superStats.writes.Add(1)
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
	p.superStats.reads.Add(1)
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

// Stats returns a snapshot of the I/O counters: the sum of this pager's
// counters in every cache stripe plus superblock traffic. The counters
// are atomics, so the sweep is lock-free and takes no stripe mutex. Each counter is
// exact; the snapshot as a whole is taken without a global pause, like
// the per-query deltas consuming it.
func (p *Pager) Stats() Stats {
	var s Stats
	for i := range p.stripes {
		s.Add(p.stripes[i].stats.snapshot())
	}
	s.Add(p.superStats.snapshot())
	return s
}

// ResetStats zeroes the I/O counters; benchmarks call it per query batch.
func (p *Pager) ResetStats() {
	for i := range p.stripes {
		p.stripes[i].stats.reset()
	}
	p.superStats.reset()
}

// Write writes data, exactly one page, as page id: a page the file has,
// or the next one, which it appends. The page reaches the file in this
// call, one write of the whole page, under its stripe's lock and after
// any read of it in flight, so no reader sees it torn. A resident copy
// is dropped: later callers read the new bytes, and whoever holds the
// old copy pinned keeps it until their Release. An appended page counts
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
	st, fs := p.stripeOf(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	fr := fs.frames[id]
	for ; fr != nil && fr.loading; fr = fs.frames[id] {
		st.loaded.Wait()
	}
	if _, err := p.f.WriteAt(data, int64(uint64(id))*int64(p.pageSize)); err != nil {
		return fmt.Errorf("%w: write page %d: %w", ErrIO, id, err)
	}
	fs.stats.writes.Add(1)
	ev := byte(evWrite)
	if uint64(id) == count {
		ev = evAlloc
		fs.stats.allocs.Add(1)
		p.pageCount.Store(count + 1)
	}
	if rec := p.cache.rec; rec != nil {
		rec.access(ev, p, id)
	}
	if fr != nil {
		st.drop(fs, fr)
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
// with the stripe unlocked; whoever asks for the same id meanwhile pins
// that frame, counts a hit and waits on st.loaded, so a page is read
// once however callers interleave. A failed read drops the frame and
// hands every waiter the same error; the next call reads again. Reads
// start only under st.mu with the pager open and are counted in
// fs.reading, which is what Close waits on before closing the file.
func (p *Pager) getFrame(id PageID) (*frame, error) {
	st, fs := p.stripeOf(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	if p.closed.Load() {
		return nil, ErrClosed
	}
	if count := p.pageCount.Load(); id == 0 || uint64(id) >= count {
		return nil, fmt.Errorf("%w: %d (have %d)", ErrPageRange, id, count)
	}
	if fr, ok := fs.frames[id]; ok {
		fs.stats.hits.Add(1)
		if rec := p.cache.rec; rec != nil {
			rec.access(evHit, p, id)
		}
		fr.visited = true
		if fr.pins == 0 {
			st.unpinned--
		}
		fr.pins++
		for fr.loading {
			st.loaded.Wait()
		}
		if fr.err != nil {
			return nil, st.unpinFailed(fr)
		}
		return fr, nil
	}
	fs.stats.misses.Add(1)
	fr := p.evictFor(st)
	if rec := p.cache.rec; rec != nil {
		rec.access(evMiss, p, id)
	}
	*fr = frame{id: id, pgr: p, data: fr.data, pins: 1, loading: true}
	fs.frames[id] = fr
	st.push(fr)
	fs.reading++
	st.mu.Unlock()
	_, err := p.f.ReadAt(fr.data, int64(uint64(id))*int64(p.pageSize))
	st.mu.Lock()
	fs.reading--
	fr.loading = false
	st.loaded.Broadcast() // the woken run once mu is released
	if err != nil {
		fr.err = fmt.Errorf("%w: read page %d: %w", ErrIO, id, err)
		if rec := p.cache.rec; rec != nil {
			rec.access(evFail, p, id)
		}
		st.drop(fs, fr)
		return nil, st.unpinFailed(fr)
	}
	fs.stats.reads.Add(1)
	return fr, nil
}

// unpinFailed drops one pin of a frame whose read failed and returns
// the read's error; the last pin out parks the frame. Caller holds st.mu.
func (st *stripe) unpinFailed(fr *frame) error {
	if fr.pins--; fr.pins == 0 {
		st.park(fr)
	}
	return fr.err
}

// evictFor returns an unmapped frame for a page of p about to enter st,
// evicting unpinned frames while the stripe is at its capacity share:
// the victim's frame, else a parked one, and a new frame and buffer only
// when there is neither — below capacity, or everything pinned. Caller
// holds st.mu.
func (p *Pager) evictFor(st *stripe) *frame {
	var fr *frame
	if st.resident >= st.cap && st.unpinned > 0 {
		fr = st.evict()
	} else if n := len(st.free); n > 0 {
		fr, st.free = st.free[n-1], st.free[:n-1]
	}
	if fr == nil || len(fr.data) != p.pageSize { // its last file may have had another page size
		fr = &frame{data: make([]byte, p.pageSize)}
	}
	return fr
}

// evict walks the hand from where it rests toward the newest frame,
// going on from the oldest past the newest: it passes pinned frames,
// clears the visited bit of an unpinned one that has it, and stops at
// the first unpinned frame without it. It unmaps that victim and returns
// it; the hand rests on the next newer frame. Caller holds st.mu, with
// st.unpinned > 0, so the walk ends within two turns.
func (st *stripe) evict() *frame {
	victim := cmp.Or(st.hand, st.tail)
	for victim.pins > 0 || victim.visited {
		if victim.pins == 0 {
			victim.visited = false
		}
		victim = cmp.Or(victim.prev, st.tail)
	}
	st.hand = victim
	_, fs := victim.pgr.stripeOf(victim.id)
	delete(fs.frames, victim.id)
	st.unlink(victim)
	st.unpinned--
	return victim
}

// trim evicts frames while the stripe is over its share and drops
// parked frames beyond it. A pinned frame stays until a later release or
// admission. Caller holds st.mu.
func (st *stripe) trim() {
	for st.resident > st.cap && st.unpinned > 0 {
		st.evict()
	}
	if keep := max(0, st.cap-st.resident); len(st.free) > keep {
		clear(st.free[keep:])
		st.free = st.free[:keep]
	}
}

// drop unmaps fr from fs outside any eviction: its file closed, a write
// replaced its page, its read failed, or caching is off and its last pin
// went. An unpinned frame is parked; a pinned one stays with its pinners
// and goes when the last of them releases it. Caller holds st.mu.
func (st *stripe) drop(fs *fileStripe, fr *frame) {
	delete(fs.frames, fr.id)
	st.unlink(fr)
	if fr.pins > 0 {
		fr.dropped = true
		return
	}
	st.unpinned--
	st.park(fr)
}

// park keeps an unmapped, unpinned frame for the next admission, unless
// the stripe already owns its capacity share of frames. Caller holds st.mu.
func (st *stripe) park(fr *frame) {
	if st.resident+len(st.free) < st.cap {
		st.free = append(st.free, fr)
	}
}

func (p *Pager) release(fr *frame) {
	st, fs := p.stripeOf(fr.id)
	st.mu.Lock()
	defer st.mu.Unlock()
	// A dropped frame is no page's copy any more: the trace and the
	// queue have already let it go.
	if fr.pins--; fr.dropped {
		return
	}
	if rec := p.cache.rec; rec != nil {
		rec.access(evRelease, p, fr.id)
	}
	if fr.pins > 0 {
		return
	}
	st.unpinned++
	switch {
	case p.noCache:
		// Caching off (§5 "for fairness, we turn off buffering and
		// caching"): the frame goes at once, parked for the next Get,
		// which in this mode is always a miss.
		st.drop(fs, fr)
	case st.resident > st.cap:
		// A stripe that outgrew its share while every frame was pinned
		// shrinks back as its frames come free.
		st.trim()
	}
}

// push admits fr, just mapped, at the newest end of the queue.
func (st *stripe) push(fr *frame) {
	fr.next = st.head
	if st.head != nil {
		st.head.prev = fr
	} else {
		st.tail = fr
	}
	st.head = fr
	st.resident++
}

// unlink takes fr, just unmapped, out of the queue; a hand resting on it
// moves on to the next newer frame.
func (st *stripe) unlink(fr *frame) {
	if st.hand == fr {
		st.hand = fr.prev
	}
	if fr.prev != nil {
		fr.prev.next = fr.next
	} else {
		st.head = fr.next
	}
	if fr.next != nil {
		fr.next.prev = fr.prev
	} else {
		st.tail = fr.prev
	}
	fr.prev, fr.next = nil, nil
	st.resident--
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
// set first, under the lock a Write holds, so no write follows it; each
// stripe is then waited on until no read of this file is in flight. A
// read starts only under its stripe's lock with the flag clear, so past
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
	for i := range p.stripes {
		st := &p.cache.stripes[i]
		st.mu.Lock()
		for p.stripes[i].reading > 0 {
			st.loaded.Wait()
		}
		st.mu.Unlock()
	}
	p.cache.resize(p, -1)
	if e := p.f.Close(); e != nil && err == nil {
		err = e
	}
	return err
}

// FileSize returns the current size of the backing file in bytes.
func (p *Pager) FileSize() int64 {
	return int64(p.pageCount.Load()) * int64(p.pageSize)
}
