// Package pager implements the disk substrate of the reproduction: a
// page-structured file with a fixed page size (4096 bytes in all of the
// paper's experiments, §5 "Parameters"), an LRU buffer pool with pin
// counts, and I/O statistics.
//
// The statistics matter beyond bookkeeping: §4.4.1 analyses HD-Index by
// the number of random disk accesses, and §5.2.5 argues the Ptolemaic
// filter is free in I/O terms. The counters here are what let the
// benchmarks report those numbers on any hardware.
//
// The buffer pool is sharded into lock-striped LRU segments keyed by
// page id, so concurrent searches touching different pages never
// contend on one global mutex; aggregate Stats stay exact by summing
// the per-shard counters. Callers on the read hot path can borrow a
// pinned frame zero-copy via View instead of going through Get's
// heap-allocated Page handle.
//
// A pool miss costs one pread and nothing else: once a stripe holds its
// capacity share of frames every incoming page lives in a recycled one
// (the LRU victim's), and the read is issued outside the stripe lock
// into a frame already published as loading, so concurrent callers of
// that page wait for the one read instead of repeating it. The price is
// that a released frame's bytes are overwritten by the next miss: a
// slice borrowed from a View or Page is dead at Release.
package pager

import (
	"cmp"
	"encoding/binary"
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
	Allocs uint64 // pages allocated
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

// Options configures Open.
type Options struct {
	PageSize   int  // bytes per page; DefaultPageSize if zero
	PoolPages  int  // buffer pool capacity in pages; 256 if zero
	Create     bool // create (truncate) instead of opening existing
	ReadOnly   bool // open without write permission
	DisableLRU bool // bypass caching entirely: every Get is a disk read (paper's "caching off" mode)
}

// Page is a pinned page in the buffer pool. Callers must Release it when
// done; writes must be followed by MarkDirty before Release.
type Page struct {
	ID    PageID
	Data  []byte
	frame *frame
	pgr   *Pager
}

// MarkDirty records that Data was modified and must reach disk.
func (p *Page) MarkDirty() {
	sh := p.pgr.shardOf(p.frame.id)
	sh.mu.Lock()
	p.frame.dirty = true
	sh.mu.Unlock()
}

// Release unpins the page. The Page must not be used afterwards.
func (p *Page) Release() {
	p.pgr.release(p.frame)
}

// View is a pinned zero-copy borrow of a page's pool frame: the read
// hot path's alternative to Get, with no per-call heap allocation (View
// is a value, not a pointer). Data is the frame's buffer itself — valid
// only until Release, and must not be written through.
type View struct {
	Data []byte
	fr   *frame
	pgr  *Pager
}

// Release unpins the viewed frame. The View must not be used afterwards.
func (v View) Release() {
	v.pgr.release(v.fr)
}

type frame struct {
	id      PageID
	data    []byte
	pins    int
	dirty   bool
	loading bool   // the miss that admitted it is reading into data outside the stripe lock
	err     error  // that read's failure, for the callers that waited on it
	prev    *frame // LRU list of unpinned frames
	next    *frame
}

// counters is one stripe's share of the I/O statistics. The fields are
// atomics so Stats() — called twice per query for the QueryStats deltas
// — never touches the stripe mutexes: a stats sweep must not contend
// with the searches' getFrame/release traffic on them.
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

// poolShard is one lock stripe of the buffer pool: its own frame map,
// LRU list, capacity share, and I/O counters. A page id always maps to
// the same shard, so per-page state never straddles stripes.
type poolShard struct {
	mu      sync.Mutex
	loaded  sync.Cond // on mu; broadcast whenever a loading frame's read ends
	reading int       // reads in flight outside mu; Close waits for zero
	cap     int
	frames  map[PageID]*frame
	free    []*frame // unmapped frames kept for the next admission
	lruHead *frame   // most recently used unpinned
	lruTail *frame
	lruLen  int
	stats   counters
}

// Pager manages one page file. It is safe for concurrent use: readers
// of distinct pool shards proceed in parallel; only the superblock and
// metadata share a mutex.
type Pager struct {
	f        iofault.File
	pageSize int
	noCache  bool
	readOnly bool

	pageCount atomic.Uint64 // includes superblock
	closed    atomic.Bool

	// allocMu serialises Allocs with each other and with Flush/Close.
	// Two invariants hang off it: pageCount is published only after the
	// new frame is admitted (so a Get that passes the range check always
	// finds the frame instead of reading past EOF), and the superblock
	// never records a count covering a frame the flush didn't see.
	// Get/View never touch it — allocation is off the read hot path.
	allocMu sync.Mutex

	state      sync.Mutex // guards meta, superblock I/O, close
	meta       []byte
	superStats counters // superblock traffic (page 0 never enters the shards)

	shards []poolShard
	mask   uint64 // len(shards)-1; len is a power of two
}

// Open creates or opens the page file at path.
func Open(path string, opts Options) (*Pager, error) {
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
	}
	if opts.Create {
		p.pageCount.Store(1)
		if err := p.writeSuperblockLocked(1); err != nil {
			f.Close()
			return nil, err
		}
	} else {
		if err := p.readSuperblock(); err != nil {
			f.Close()
			return nil, err
		}
	}
	p.initShards(defaultPoolShards, opts.PoolPages)
	return p, nil
}

// initShards splits the pool into at most n lock stripes: a power-of-two
// count no larger than the pool itself, each owning an equal share of
// the capacity. Open calls it once, before any page traffic; tests that
// need one LRU order over the whole pool call it again with n = 1.
func (p *Pager) initShards(n, poolPages int) {
	if n > poolPages {
		n = poolPages
	}
	// Round down to a power of two so shardOf is a mask, not a modulo.
	pow := 1
	for pow*2 <= n {
		pow *= 2
	}
	n = pow
	p.shards = make([]poolShard, n)
	p.mask = uint64(n - 1)
	// Distribute the capacity exactly: the first poolPages%n stripes
	// take one extra frame, so the aggregate equals PoolPages rather
	// than silently rounding down.
	perShard, extra := poolPages/n, poolPages%n
	for i := range p.shards {
		p.shards[i].cap = perShard
		if i < extra {
			p.shards[i].cap++
		}
		p.shards[i].frames = make(map[PageID]*frame)
		p.shards[i].loaded.L = &p.shards[i].mu
	}
}

func (p *Pager) shardOf(id PageID) *poolShard {
	return &p.shards[uint64(id)&p.mask]
}

// writeSuperblockLocked writes the superblock recording count pages;
// caller holds p.state (or has exclusive access, as during Open) and
// must have captured count under allocMu, so it never exceeds the set
// of pages whose frames were admitted when the pool was flushed.
func (p *Pager) writeSuperblockLocked(count uint64) error {
	buf := make([]byte, p.pageSize)
	copy(buf, magic)
	binary.BigEndian.PutUint32(buf[offVersion:], version)
	binary.BigEndian.PutUint32(buf[offPageSize:], uint32(p.pageSize))
	binary.BigEndian.PutUint64(buf[offPageCount:], count)
	binary.BigEndian.PutUint32(buf[offMetaLen:], uint32(len(p.meta)))
	copy(buf[offMeta:], p.meta)
	binary.BigEndian.PutUint64(buf[offChecksum:], superChecksum(buf))
	if _, err := p.f.WriteAt(buf, 0); err != nil {
		return fmt.Errorf("%w: write superblock: %w", ErrIO, err)
	}
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

// Stats returns a snapshot of the I/O counters: the sum of every pool
// shard's counters plus superblock traffic. The counters are atomics,
// so the sweep is lock-free and takes no stripe mutex. Each counter is
// exact; the snapshot as a whole is taken without a global pause, like
// the per-query deltas consuming it.
func (p *Pager) Stats() Stats {
	var s Stats
	for i := range p.shards {
		s.Add(p.shards[i].stats.snapshot())
	}
	s.Add(p.superStats.snapshot())
	return s
}

// ResetStats zeroes the I/O counters; benchmarks call it per query batch.
func (p *Pager) ResetStats() {
	for i := range p.shards {
		p.shards[i].stats.reset()
	}
	p.superStats.reset()
}

// Alloc appends a zeroed page to the file and returns it pinned.
func (p *Pager) Alloc() (*Page, error) {
	if p.readOnly {
		return nil, errors.New("pager: alloc on read-only file")
	}
	p.allocMu.Lock()
	defer p.allocMu.Unlock()
	// An Alloc that loses the lock race to Close fails here; one that
	// wins it completes fully (admit + publish) before Close can
	// capture the count and flush, so nothing counted is ever missing.
	if p.closed.Load() {
		return nil, ErrClosed
	}
	id := PageID(p.pageCount.Load())
	sh := p.shardOf(id)
	sh.mu.Lock()
	sh.stats.allocs.Add(1)
	fr, err := p.evictFor(sh)
	if err != nil {
		sh.mu.Unlock()
		return nil, err
	}
	clear(fr.data)
	*fr = frame{id: id, data: fr.data, pins: 1, dirty: true}
	sh.frames[id] = fr
	sh.mu.Unlock()
	// Publish only after the frame is in its shard: a concurrent Get of
	// this id either fails the range check (not yet published) or finds
	// the admitted frame — it can never fall through to a disk read of
	// a page the file doesn't have yet.
	p.pageCount.Store(uint64(id) + 1)
	return &Page{ID: id, Data: fr.data, frame: fr, pgr: p}, nil
}

// Get returns the page with the given id, pinned.
func (p *Pager) Get(id PageID) (*Page, error) {
	fr, err := p.getFrame(id)
	if err != nil {
		return nil, err
	}
	return &Page{ID: id, Data: fr.data, frame: fr, pgr: p}, nil
}

// View returns a pinned zero-copy view of the page: Get without the
// Page allocation. The caller must Release it and must not write
// through Data.
func (p *Pager) View(id PageID) (View, error) {
	fr, err := p.getFrame(id)
	if err != nil {
		return View{}, err
	}
	return View{Data: fr.data, fr: fr, pgr: p}, nil
}

// getFrame returns the pinned frame for id, reading it from disk on a
// pool miss. The miss publishes its frame pinned and loading, then reads
// with the stripe unlocked; whoever asks for the same id meanwhile pins
// that frame, counts a hit and waits on sh.loaded, so a page is read
// once however callers interleave. A failed read unmaps the frame and
// hands every waiter the same error; the next call reads again. Reads
// start only under sh.mu with the pager open and are counted in
// sh.reading, which is what Close waits on before closing the file.
func (p *Pager) getFrame(id PageID) (*frame, error) {
	sh := p.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if p.closed.Load() {
		return nil, ErrClosed
	}
	if count := p.pageCount.Load(); id == 0 || uint64(id) >= count {
		return nil, fmt.Errorf("%w: %d (have %d)", ErrPageRange, id, count)
	}
	if fr, ok := sh.frames[id]; ok {
		sh.stats.hits.Add(1)
		if fr.pins == 0 {
			sh.lruRemove(fr)
		}
		fr.pins++
		for fr.loading {
			sh.loaded.Wait()
		}
		if fr.err != nil {
			return nil, sh.unpinFailed(fr)
		}
		return fr, nil
	}
	sh.stats.misses.Add(1)
	fr, err := p.evictFor(sh)
	if err != nil {
		return nil, err
	}
	*fr = frame{id: id, data: fr.data, pins: 1, loading: true}
	sh.frames[id] = fr
	sh.reading++
	sh.mu.Unlock()
	_, err = p.f.ReadAt(fr.data, int64(uint64(id))*int64(p.pageSize))
	sh.mu.Lock()
	sh.reading--
	fr.loading = false
	sh.loaded.Broadcast() // the woken run once mu is released
	if err != nil {
		fr.err = fmt.Errorf("%w: read page %d: %w", ErrIO, id, err)
		delete(sh.frames, id)
		return nil, sh.unpinFailed(fr)
	}
	sh.stats.reads.Add(1)
	return fr, nil
}

// unpinFailed drops one pin of a frame whose read failed and returns
// the read's error; the last pin out parks the frame. Caller holds sh.mu.
func (sh *poolShard) unpinFailed(fr *frame) error {
	if fr.pins--; fr.pins == 0 {
		sh.park(fr)
	}
	return fr.err
}

// evictFor returns an unmapped frame for the page about to enter sh,
// evicting LRU unpinned frames while the shard is at its capacity share
// (dirty ones are written first and stay resident if the write fails).
// The first victim is the frame returned; further ones, the surplus of a
// pool that outgrew its share while every frame was pinned, go to the
// GC. With no victim it is a parked frame, and a new frame and buffer
// only when there is none: below capacity, or everything pinned. Caller
// holds sh.mu.
func (p *Pager) evictFor(sh *poolShard) (*frame, error) {
	var fr *frame
	for len(sh.frames) >= sh.cap && sh.lruLen > 0 {
		victim := sh.lruTail
		if victim.dirty {
			if err := p.writeFrame(sh, victim); err != nil {
				return nil, err
			}
		}
		sh.lruRemove(victim)
		delete(sh.frames, victim.id)
		if fr == nil {
			fr = victim
		}
	}
	if n := len(sh.free); fr == nil && n > 0 {
		fr, sh.free = sh.free[n-1], sh.free[:n-1]
	}
	if fr == nil {
		fr = &frame{data: make([]byte, p.pageSize)}
	}
	return fr, nil
}

// park keeps an unmapped, unpinned frame for the next admission, unless
// the shard already owns its capacity share of frames. Caller holds sh.mu.
func (sh *poolShard) park(fr *frame) {
	if len(sh.frames)+len(sh.free) < sh.cap {
		sh.free = append(sh.free, fr)
	}
}

func (p *Pager) writeFrame(sh *poolShard, fr *frame) error {
	if _, err := p.f.WriteAt(fr.data, int64(uint64(fr.id))*int64(p.pageSize)); err != nil {
		return fmt.Errorf("%w: write page %d: %w", ErrIO, fr.id, err)
	}
	fr.dirty = false
	sh.stats.writes.Add(1)
	return nil
}

func (p *Pager) release(fr *frame) {
	sh := p.shardOf(fr.id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fr.pins--
	if fr.pins > 0 {
		return
	}
	if p.noCache {
		// Caching off (§5 "for fairness, we turn off buffering and
		// caching"): write the frame out if dirty, unmap it and park it
		// for the next Get, which in this mode is always a miss. On a
		// write failure the frame stays resident and dirty, so the data
		// is not lost and Flush/Close retries the write and surfaces
		// the error (unmapping the frame first would silently discard
		// the page).
		if fr.dirty {
			if err := p.writeFrame(sh, fr); err != nil {
				return
			}
		}
		delete(sh.frames, fr.id)
		sh.park(fr)
		return
	}
	sh.lruPushFront(fr)
}

func (sh *poolShard) lruPushFront(fr *frame) {
	fr.prev = nil
	fr.next = sh.lruHead
	if sh.lruHead != nil {
		sh.lruHead.prev = fr
	}
	sh.lruHead = fr
	if sh.lruTail == nil {
		sh.lruTail = fr
	}
	sh.lruLen++
}

func (sh *poolShard) lruRemove(fr *frame) {
	if fr.prev != nil {
		fr.prev.next = fr.next
	} else {
		sh.lruHead = fr.next
	}
	if fr.next != nil {
		fr.next.prev = fr.prev
	} else {
		sh.lruTail = fr.prev
	}
	fr.prev, fr.next = nil, nil
	sh.lruLen--
}

// flushShards writes every shard's dirty frames, taking each shard lock
// in turn.
func (p *Pager) flushShards() error {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for _, fr := range sh.frames {
			if fr.dirty {
				if err := p.writeFrame(sh, fr); err != nil {
					sh.mu.Unlock()
					return err
				}
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// Flush writes all dirty pages and the superblock to disk. It excludes
// concurrent Alloc (via allocMu) so the persisted page count is a
// consistent snapshot: every page it covers had its frame flushed.
func (p *Pager) Flush() error {
	if p.closed.Load() {
		return ErrClosed
	}
	if p.readOnly {
		return nil
	}
	p.allocMu.Lock()
	defer p.allocMu.Unlock()
	count := p.pageCount.Load()
	if err := p.flushShards(); err != nil {
		return err
	}
	p.state.Lock()
	defer p.state.Unlock()
	return p.writeSuperblockLocked(count)
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

// Close flushes and closes the file. The pager is unusable afterwards.
// The closed flag is set first; each stripe is then waited on until no
// read is in flight. A read starts only under its stripe's lock with the
// flag clear, so past that wait none can start: every read finishes
// against the still-open file and later callers observe ErrClosed.
func (p *Pager) Close() error {
	p.state.Lock()
	if p.closed.Load() {
		p.state.Unlock()
		return nil
	}
	p.closed.Store(true)
	p.state.Unlock()
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for sh.reading > 0 {
			sh.loaded.Wait()
		}
		sh.mu.Unlock()
	}
	var err error
	if !p.readOnly {
		// The alloc lock drains in-flight Allocs (their frames are then
		// admitted and flushable) and holds off later ones, which fail
		// on the closed flag.
		p.allocMu.Lock()
		defer p.allocMu.Unlock()
		count := p.pageCount.Load()
		if e := p.flushShards(); e != nil {
			err = e
		}
		p.state.Lock()
		if e := p.writeSuperblockLocked(count); e != nil && err == nil {
			err = e
		}
		p.state.Unlock()
	}
	if e := p.f.Close(); e != nil && err == nil {
		err = e
	}
	return err
}

// FileSize returns the current size of the backing file in bytes.
func (p *Pager) FileSize() int64 {
	return int64(p.pageCount.Load()) * int64(p.pageSize)
}
