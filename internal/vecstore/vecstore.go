// Package vecstore stores the raw dataset vectors in a paged file.
//
// HD-Index never keeps descriptors inside the tree (that is the point of
// the RDB-tree leaf design, §3.2): the final refinement step (§4.3)
// follows object pointers and pays one random disk access per candidate
// — the κ = O(τ·γ) accesses of the I/O analysis in §4.4.1. This store is
// that pointer target, with the pager's counters measuring those reads.
//
// Records are fixed-size (4·dim bytes) and packed back to back in the
// data region after the superblock, addressed by record number; a vector
// may span page boundaries (e.g. Enron's ν=1369 needs 5476 bytes, more
// than one 4096-byte page), and the I/O counters reflect every page
// touched. Which object a record number names is the caller's business:
// core writes records in tree-0 Hilbert-key order (its slot space), so
// the κ pointers of one query land on far fewer than κ pages, and reads
// them back in ascending order through a Cursor, which pins each of
// those pages once.
package vecstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/hd-index/hdindex/internal/pager"
)

// Errors returned by the store.
var (
	ErrBadID  = errors.New("vecstore: record number out of range")
	ErrDim    = errors.New("vecstore: dimension mismatch")
	ErrHeader = errors.New("vecstore: corrupt store header")
)

// Store is a fixed-dimension vector file. Safe for concurrent readers.
type Store struct {
	pgr   *pager.Pager
	dim   int
	count uint64
}

// Create initialises an empty store of dim-dimensional vectors in pgr.
func Create(pgr *pager.Pager, dim int) (*Store, error) {
	if dim < 1 {
		return nil, fmt.Errorf("vecstore: dim must be >= 1, got %d", dim)
	}
	s := &Store{pgr: pgr, dim: dim}
	return s, s.writeHeader()
}

// Open loads an existing store from pgr's metadata.
func Open(pgr *pager.Pager) (*Store, error) {
	meta := pgr.Meta()
	if len(meta) < 12 {
		return nil, ErrHeader
	}
	return &Store{
		pgr:   pgr,
		dim:   int(binary.BigEndian.Uint32(meta[0:])),
		count: binary.BigEndian.Uint64(meta[4:]),
	}, nil
}

func (s *Store) writeHeader() error {
	meta := make([]byte, 12)
	binary.BigEndian.PutUint32(meta[0:], uint32(s.dim))
	binary.BigEndian.PutUint64(meta[4:], s.count)
	return s.pgr.SetMeta(meta)
}

// Dim returns the vector dimensionality ν.
func (s *Store) Dim() int { return s.dim }

// Count returns the number of stored vectors.
func (s *Store) Count() uint64 { return s.count }

// Pager exposes the underlying pager for stats and closing.
func (s *Store) Pager() *pager.Pager { return s.pgr }

func (s *Store) recSize() int { return 4 * s.dim }

// byte range of record id within the data region (which starts at page 1).
func (s *Store) recRange(id uint64) (firstPage pager.PageID, firstOff, size int) {
	off := int64(id) * int64(s.recSize())
	ps := int64(s.pgr.PageSize())
	return pager.PageID(1 + off/ps), int(off % ps), s.recSize()
}

// VecView is a pinned zero-copy view of one stored vector: Vec aliases
// the buffer-pool frame itself. It is read-only and valid only until
// Release.
type VecView struct {
	Vec  []float32
	view pager.View
}

// Release unpins the underlying page. The view must not be used after.
func (v VecView) Release() { v.view.Release() }

// GetView returns a pinned zero-copy view of vector id, skipping Get's
// per-float decode copy. ok is false when the borrow is unavailable —
// the record spans a page boundary (e.g. Enron's ν=1369), the bytes
// cannot be reinterpreted in place (big-endian CPU, misaligned page
// slot), or the page read failed — and the caller must fall back to
// Get, which handles all record shapes and surfaces I/O errors.
func (s *Store) GetView(id uint64) (VecView, bool) {
	first, off, size := s.recRange(id)
	if id >= s.count || off+size > s.pgr.PageSize() {
		return VecView{}, false
	}
	pv, err := s.pgr.View(first)
	if err != nil {
		return VecView{}, false
	}
	seg := pv.Data[off : off+size]
	if !viewable(seg) {
		pv.Release()
		return VecView{}, false
	}
	return VecView{Vec: castFloat32(seg, s.dim), view: pv}, true
}

// Cursor reads vectors zero-copy like GetView, but keeps the page of the
// last one pinned, so consecutive reads that fall on one page — a sorted
// run of record numbers — cost one pin and one unpin per page instead of
// per vector. A Cursor belongs to one goroutine and must be Closed.
type Cursor struct {
	s    *Store
	view pager.View
	page pager.PageID // the pinned page, 0 = none (page 0 is the superblock)
}

// Cursor returns an unpositioned cursor over the store.
func (s *Store) Cursor() Cursor { return Cursor{s: s} }

// View returns vector id as a slice into the pinned page, valid until
// the next View or Close. ok is false exactly where GetView's is — the
// caller falls back to Get.
func (c *Cursor) View(id uint64) (vec []float32, ok bool) {
	s := c.s
	first, off, size := s.recRange(id)
	if id >= s.count || off+size > s.pgr.PageSize() {
		return nil, false
	}
	if first != c.page {
		c.Close()
		pv, err := s.pgr.View(first)
		if err != nil {
			return nil, false
		}
		c.view, c.page = pv, first
	}
	seg := c.view.Data[off : off+size]
	if !viewable(seg) {
		return nil, false
	}
	return castFloat32(seg, s.dim), true
}

// Close unpins the cursor's page. The cursor may be used again.
func (c *Cursor) Close() {
	if c.page != 0 {
		c.view.Release()
		c.page = 0
	}
}

// writeRecords encodes vecs little-endian into the record slots starting
// at slot first. It touches neither the count nor the header: when the
// records become visible, and what is synced first, is each caller's
// own ordering.
func (s *Store) writeRecords(first uint64, vecs [][]float32) error {
	buf := make([]byte, s.recSize())
	off := int64(first) * int64(s.recSize())
	for _, vec := range vecs {
		if len(vec) != s.dim {
			return ErrDim
		}
		for i, v := range vec {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		if err := s.writeBytes(off, buf); err != nil {
			return err
		}
		off += int64(len(buf))
	}
	return nil
}

// Append adds a vector and returns its record number (0-based, dense).
func (s *Store) Append(vec []float32) (uint64, error) {
	id := s.count
	if err := s.writeRecords(id, [][]float32{vec}); err != nil {
		return 0, err
	}
	s.count++
	return id, s.writeHeader()
}

// BuildFrom bulk-appends all vectors; far fewer header writes than
// repeated Append calls.
func (s *Store) BuildFrom(vecs [][]float32) error {
	if err := s.writeRecords(s.count, vecs); err != nil {
		return err
	}
	s.count += uint64(len(vecs))
	return s.writeHeader()
}

// AppendAll bulk-appends vecs with crash-safe ordering: every record's
// bytes are written and fsynced before the count header advances, and
// the header commit is its own sync. A crash anywhere leaves either the
// old count (the new bytes are invisible garbage past the end) or the
// new count with every record durable — never a count that admits torn
// records. The compaction commit path depends on exactly this.
func (s *Store) AppendAll(vecs [][]float32) error {
	if len(vecs) == 0 {
		return nil
	}
	if err := s.writeRecords(s.count, vecs); err != nil {
		return err
	}
	// Data first: pages (and the superblock, still carrying the old
	// count) reach disk before the count that makes them reachable.
	if err := s.pgr.Sync(); err != nil {
		return err
	}
	s.count += uint64(len(vecs))
	if err := s.writeHeader(); err != nil {
		s.count -= uint64(len(vecs))
		return err
	}
	return s.pgr.Sync()
}

// ResetCount rewinds the record count to n (n <= Count) and persists
// the header. Open's crash reconciliation uses it to drop an appended
// tail whose commit point (the index meta) never landed; the bytes stay
// in place and are overwritten by the re-run append.
func (s *Store) ResetCount(n uint64) error {
	if n > s.count {
		return fmt.Errorf("vecstore: reset count %d above current %d", n, s.count)
	}
	if n == s.count {
		return nil
	}
	s.count = n
	if err := s.writeHeader(); err != nil {
		return err
	}
	return s.pgr.Flush()
}

// writeBytes writes buf at the given data-region offset, allocating pages
// as needed.
func (s *Store) writeBytes(off int64, buf []byte) error {
	ps := int64(s.pgr.PageSize())
	for len(buf) > 0 {
		pageIdx := pager.PageID(1 + off/ps)
		inPage := int(off % ps)
		n := int(ps) - inPage
		if n > len(buf) {
			n = len(buf)
		}
		for uint64(pageIdx) >= s.pgr.PageCount() {
			pg, err := s.pgr.Alloc()
			if err != nil {
				return err
			}
			pg.MarkDirty()
			pg.Release()
		}
		pg, err := s.pgr.Get(pageIdx)
		if err != nil {
			return err
		}
		copy(pg.Data[inPage:inPage+n], buf[:n])
		pg.MarkDirty()
		pg.Release()
		buf = buf[n:]
		off += int64(n)
	}
	return nil
}

// Get reads vector id into dst (length Dim) and returns dst; if dst is
// nil a fresh slice is allocated.
func (s *Store) Get(id uint64, dst []float32) ([]float32, error) {
	if id >= s.count {
		return nil, fmt.Errorf("%w: %d (have %d)", ErrBadID, id, s.count)
	}
	if dst == nil {
		dst = make([]float32, s.dim)
	} else if len(dst) != s.dim {
		return nil, ErrDim
	}
	ps := int64(s.pgr.PageSize())
	off := int64(id) * int64(s.recSize())
	remaining := s.recSize()
	outIdx := 0
	var partial [4]byte
	partialLen := 0
	for remaining > 0 {
		pageIdx := pager.PageID(1 + off/ps)
		inPage := int(off % ps)
		n := int(ps) - inPage
		if n > remaining {
			n = remaining
		}
		pg, err := s.pgr.Get(pageIdx)
		if err != nil {
			return nil, err
		}
		chunk := pg.Data[inPage : inPage+n]
		// Assemble float32 values across the chunk (and page splits).
		for len(chunk) > 0 {
			if partialLen > 0 || len(chunk) < 4 {
				for partialLen < 4 && len(chunk) > 0 {
					partial[partialLen] = chunk[0]
					partialLen++
					chunk = chunk[1:]
				}
				if partialLen == 4 {
					dst[outIdx] = math.Float32frombits(binary.LittleEndian.Uint32(partial[:]))
					outIdx++
					partialLen = 0
				}
				continue
			}
			dst[outIdx] = math.Float32frombits(binary.LittleEndian.Uint32(chunk))
			outIdx++
			chunk = chunk[4:]
		}
		pg.Release()
		off += int64(n)
		remaining -= n
	}
	return dst, nil
}

// Flush persists the header and dirty pages.
func (s *Store) Flush() error {
	if err := s.writeHeader(); err != nil {
		return err
	}
	return s.pgr.Flush()
}
