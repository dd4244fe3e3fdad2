// Package vecstore stores the raw dataset vectors in a paged file.
//
// HD-Index never keeps descriptors inside the tree (that is the point of
// the RDB-tree leaf design, §3.2): the final refinement step (§4.3)
// follows object pointers and pays one random disk access per candidate
// — the κ = O(τ·γ) accesses of the I/O analysis in §4.4.1. This store is
// that pointer target, with the pager's counters measuring those reads.
//
// Records are fixed-size within each of two runs, packed back to back in
// the data region after the superblock and addressed by record number:
// first `base` byte records of dim bytes, one uint8 per component, then
// float32 records of 4·dim bytes from the next 4-byte boundary on. The
// byte run exists only when BuildBase found every component of the
// records it was given to be an integer in [0,255] (SIFT's bvecs shape),
// so nothing is lost and four times as many records share a page; every
// later append is float32. A store made by Create has base 0 and a
// 12-byte header — the format every store had before byte records. A
// record may span page boundaries (e.g. Enron's ν=1369 needs 5476 bytes,
// more than one 4096-byte page), and the I/O counters reflect every page
// touched. Which object a record number names is the caller's business:
// core writes records in tree-0 Hilbert-key order (its slot space), so
// the κ pointers of one query land on far fewer than κ pages, and reads
// them back in ascending order through a Cursor, which pins each of
// those pages once.
//
// How many records the store holds is the caller's business too: the
// header's count is advisory. core appends a compaction's batch with
// AppendAll before its commit, records the new count in meta.json — the
// index's one commit point — and only then moves the store's with
// SetCount; its Open takes the count from meta.json whatever the header
// says.
package vecstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/hd-index/hdindex/internal/f32view"
	"github.com/hd-index/hdindex/internal/pager"
	"github.com/hd-index/hdindex/internal/vecmath"
)

// Errors returned by the store.
var (
	ErrBadID  = errors.New("vecstore: record number out of range")
	ErrDim    = errors.New("vecstore: dimension mismatch")
	ErrHeader = errors.New("vecstore: corrupt store header")
)

// Header bounds, far past any dataset, that keep every byte offset of
// the data region inside an int64.
const (
	maxDim     = 1 << 20
	maxRecords = 1 << 40
)

// Store is a fixed-dimension vector file. Safe for concurrent readers.
type Store struct {
	pgr   *pager.Pager
	dim   int
	count uint64
	base  uint64 // leading byte records; the rest are float32
}

// Create initialises an empty store of dim-dimensional vectors in pgr.
func Create(pgr *pager.Pager, dim int) (*Store, error) {
	if dim < 1 || dim > maxDim {
		return nil, fmt.Errorf("vecstore: dim must be in [1,%d], got %d", maxDim, dim)
	}
	s := &Store{pgr: pgr, dim: dim}
	return s, s.writeHeader()
}

// Open loads an existing store from pgr's metadata: dim and count, and
// the byte base when the header carries one (20 bytes, not 12). A header
// the file cannot back — a base above the count, fewer pages than the
// count's records fill — is ErrHeader.
func Open(pgr *pager.Pager) (*Store, error) {
	meta := pgr.Meta()
	if len(meta) != 12 && len(meta) != 20 {
		return nil, ErrHeader
	}
	s := &Store{
		pgr:   pgr,
		dim:   int(binary.BigEndian.Uint32(meta[0:])),
		count: binary.BigEndian.Uint64(meta[4:]),
	}
	if len(meta) == 20 {
		s.base = binary.BigEndian.Uint64(meta[12:])
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) writeHeader() error {
	meta := binary.BigEndian.AppendUint32(nil, uint32(s.dim))
	meta = binary.BigEndian.AppendUint64(meta, s.count)
	if s.base > 0 {
		meta = binary.BigEndian.AppendUint64(meta, s.base)
	}
	return s.pgr.SetMeta(meta)
}

// Validate reports whether the file can back the store's dim, base and
// count: Open runs it on the header, core on meta.json's count, and the
// index fsck on a live store.
func (s *Store) Validate() error {
	if s.dim < 1 || s.dim > maxDim || s.count > maxRecords || s.base > s.count {
		return fmt.Errorf("%w: dim %d, %d records, %d of them bytes", ErrHeader, s.dim, s.count, s.base)
	}
	if s.count == 0 {
		return nil
	}
	if _, last := s.Span(s.count - 1); s.pgr.PageCount() <= uint64(last) {
		return fmt.Errorf("%w: %d pages cannot hold %d records", ErrHeader, s.pgr.PageCount(), s.count)
	}
	return nil
}

// Dim returns the vector dimensionality ν.
func (s *Store) Dim() int { return s.dim }

// Count returns the number of stored vectors.
func (s *Store) Count() uint64 { return s.count }

// Base returns how many leading records are byte records.
func (s *Store) Base() uint64 { return s.base }

// Format describes the records, e.g. "100000 × 128 B byte records +
// 12 × 512 B float32 tail".
func (s *Store) Format() string {
	if s.base == 0 {
		return fmt.Sprintf("%d × %d B float32 records", s.count, 4*s.dim)
	}
	return fmt.Sprintf("%d × %d B byte records + %d × %d B float32 tail", s.base, s.dim, s.count-s.base, 4*s.dim)
}

// Pager exposes the underlying pager for stats and closing.
func (s *Store) Pager() *pager.Pager { return s.pgr }

// locate is the one addressing function: record id's byte offset within
// the data region (which starts at page 1) and its size.
func (s *Store) locate(id uint64) (off int64, size int) {
	if id < s.base {
		return int64(id) * int64(s.dim), s.dim
	}
	tail := (int64(s.base)*int64(s.dim) + 3) &^ 3
	return tail + int64(id-s.base)*int64(4*s.dim), 4 * s.dim
}

// pageOf maps a data-region offset to its page and the offset within it.
func (s *Store) pageOf(off int64) (pager.PageID, int) {
	ps := int64(s.pgr.PageSize())
	return pager.PageID(1 + off/ps), int(off % ps)
}

// Span returns the first and last page record id occupies.
func (s *Store) Span(id uint64) (first, last pager.PageID) {
	off, size := s.locate(id)
	first, _ = s.pageOf(off)
	last, _ = s.pageOf(off + int64(size) - 1)
	return first, last
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

// GetView returns a pinned zero-copy view of float32 record id, skipping
// Get's per-float decode copy. ok is false when the borrow is
// unavailable — a byte record, a record that spans a page boundary (e.g.
// Enron's ν=1369), bytes that cannot be reinterpreted in place
// (big-endian CPU, misaligned page slot), or a failed page read — and the
// caller must fall back to Get, which handles all record shapes and
// surfaces I/O errors.
func (s *Store) GetView(id uint64) (VecView, bool) {
	off, size := s.locate(id)
	first, in := s.pageOf(off)
	if id >= s.count || id < s.base || in+size > s.pgr.PageSize() {
		return VecView{}, false
	}
	pv, err := s.pgr.View(first)
	if err != nil {
		return VecView{}, false
	}
	seg := pv.Data[in : in+size]
	if !f32view.Viewable[float32](seg) {
		pv.Release()
		return VecView{}, false
	}
	return VecView{Vec: f32view.Cast[float32](seg, s.dim), view: pv}, true
}

// Cursor computes distances to stored records straight out of the
// buffer pool, keeping the page of the last one pinned, so consecutive
// reads that fall on one page — a sorted run of record numbers — cost
// one pin and one unpin per page instead of per record. A Cursor belongs
// to one goroutine and must be Closed.
type Cursor struct {
	s    *Store
	view pager.View
	page pager.PageID // the pinned page, 0 = none (page 0 is the superblock)
}

// Cursor returns an unpositioned cursor over the store.
func (s *Store) Cursor() Cursor { return Cursor{s: s} }

// DistSqBound is vecmath.DistSqBound(q, record id, bound), bit for bit,
// whatever the record's width: a byte record in one page goes through
// vecmath.DistSqBoundBytes, a float32 one through a zero-copy view, and a
// record the pool cannot lend in place (it spans a page, or the view is
// unavailable) is decoded by Get into scratch (length Dim, or nil to
// allocate). Only Get's errors are returned.
func (c *Cursor) DistSqBound(id uint64, q []float32, bound float64, scratch []float32) (float64, bool, error) {
	s := c.s
	off, size := s.locate(id)
	first, in := s.pageOf(off)
	if id < s.count && in+size <= s.pgr.PageSize() {
		if first != c.page {
			c.Close()
			if pv, err := s.pgr.View(first); err == nil {
				c.view, c.page = pv, first
			}
		}
		if c.page == first {
			seg := c.view.Data[in : in+size]
			if id < s.base {
				d, full := vecmath.DistSqBoundBytes(q, seg, bound)
				return d, full, nil
			}
			if f32view.Viewable[float32](seg) {
				d, full := vecmath.DistSqBound(q, f32view.Cast[float32](seg, s.dim), bound)
				return d, full, nil
			}
		}
	}
	v, err := s.Get(id, scratch)
	if err != nil {
		return 0, false, err
	}
	d, full := vecmath.DistSqBound(q, v, bound)
	return d, full, nil
}

// Close unpins the cursor's page. The cursor may be used again.
func (c *Cursor) Close() {
	if c.page != 0 {
		c.view.Release()
		c.page = 0
	}
}

// writeRecords encodes vecs into the record slots starting at slot first,
// each in its slot's width (bytes below the base, little-endian float32
// above), and writes each page they touch once, whole: a page the file
// already has is read first and keeps its other bytes (the partial tail
// page an append continues), a new one starts zeroed. It touches neither
// the count nor the header: when the records become visible, and what is
// synced first, is each caller's own ordering.
func (s *Store) writeRecords(first uint64, vecs [][]float32) error {
	page := make([]byte, s.pgr.PageSize())
	var cur pager.PageID // the page in page; 0 = none yet
	buf := make([]byte, 4*s.dim)
	for i, vec := range vecs {
		if len(vec) != s.dim {
			return ErrDim
		}
		id := first + uint64(i)
		off, size := s.locate(id)
		rec := buf[:size]
		if id < s.base {
			for j, v := range vec {
				rec[j] = uint8(v)
			}
		} else {
			for j, v := range vec {
				binary.LittleEndian.PutUint32(rec[4*j:], math.Float32bits(v))
			}
		}
		for len(rec) > 0 {
			pid, in := s.pageOf(off)
			if pid != cur {
				if err := s.writePage(cur, page); err != nil {
					return err
				}
				if err := s.readPage(pid, page); err != nil {
					return err
				}
				cur = pid
			}
			n := copy(page[in:], rec)
			rec, off = rec[n:], off+int64(n)
		}
	}
	return s.writePage(cur, page)
}

// readPage loads page id into buf, all zeros when the file has no such
// page yet.
func (s *Store) readPage(id pager.PageID, buf []byte) error {
	if uint64(id) >= s.pgr.PageCount() {
		clear(buf)
		return nil
	}
	v, err := s.pgr.View(id)
	if err != nil {
		return err
	}
	copy(buf, v.Data)
	v.Release()
	return nil
}

// writePage writes buf as page id; id 0 is no page yet.
func (s *Store) writePage(id pager.PageID, buf []byte) error {
	if id == 0 {
		return nil
	}
	return s.pgr.Write(id, buf)
}

// BuildFrom appends all vectors and sets the header, which the next
// Flush persists.
func (s *Store) BuildFrom(vecs [][]float32) error {
	if err := s.writeRecords(s.count, vecs); err != nil {
		return err
	}
	s.count += uint64(len(vecs))
	return s.writeHeader()
}

// BuildBase is BuildFrom into an empty store, but writes vecs as byte
// records when every component of every vector is an integer in [0,255]:
// a property of the input, recorded once, in the header. Later appends
// are float32 whatever their values.
func (s *Store) BuildBase(vecs [][]float32) error {
	if s.count != 0 {
		return fmt.Errorf("vecstore: byte base on a store of %d records", s.count)
	}
	if bytewise(vecs) {
		s.base = uint64(len(vecs))
	}
	if err := s.BuildFrom(vecs); err != nil {
		s.base = 0
		return err
	}
	return nil
}

// bytewise reports whether every component round-trips through a uint8.
func bytewise(vecs [][]float32) bool {
	for _, v := range vecs {
		for _, x := range v {
			if !(x >= 0 && x <= 255 && float32(uint8(x)) == x) {
				return false
			}
		}
	}
	return len(vecs) > 0
}

// AppendAll writes vecs as the records after the last one and fsyncs
// them, with the page count that covers them; Count does not move. The
// records become the store's when the caller's commit point names them
// and SetCount follows it (core: meta.json), so a failure or a crash
// anywhere leaves bytes past the count that the next append writes over.
func (s *Store) AppendAll(vecs [][]float32) error {
	if len(vecs) == 0 {
		return nil
	}
	if err := s.writeRecords(s.count, vecs); err != nil {
		return err
	}
	return s.pgr.Sync()
}

// SetCount makes the first n records the store's: n is the count a
// commit point outside the store recorded, and the header, advisory,
// follows at the next Flush. Validate reports whether the file can hold
// n records.
func (s *Store) SetCount(n uint64) { s.count = n }

// Get reads vector id into dst (length Dim) and returns dst, decoding
// either record width; if dst is nil a fresh slice is allocated.
func (s *Store) Get(id uint64, dst []float32) ([]float32, error) {
	if id >= s.count {
		return nil, fmt.Errorf("%w: %d (have %d)", ErrBadID, id, s.count)
	}
	if dst == nil {
		dst = make([]float32, s.dim)
	} else if len(dst) != s.dim {
		return nil, ErrDim
	}
	off, remaining := s.locate(id)
	outIdx := 0
	var partial [4]byte
	partialLen := 0
	for remaining > 0 {
		pageIdx, inPage := s.pageOf(off)
		n := min(s.pgr.PageSize()-inPage, remaining)
		pv, err := s.pgr.View(pageIdx)
		if err != nil {
			return nil, err
		}
		chunk := pv.Data[inPage : inPage+n]
		for ; id < s.base && len(chunk) > 0; chunk = chunk[1:] {
			dst[outIdx] = float32(chunk[0])
			outIdx++
		}
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
		pv.Release()
		off += int64(n)
		remaining -= n
	}
	return dst, nil
}

// Flush persists the header; the records reached the file as they were
// written.
func (s *Store) Flush() error {
	if err := s.writeHeader(); err != nil {
		return err
	}
	return s.pgr.Flush()
}
