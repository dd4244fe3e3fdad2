// Package bptree implements a disk-resident B+-tree over fixed-width byte
// keys with fixed-width values, on top of the pager.
//
// It is the shared tree machinery of the reproduction: RDB-trees (§3.2)
// are B+-trees whose leaf values are reference-object distances; iDistance
// [73] and QALSH [33] index sortable-float keys; Multicurves [66] stores
// whole descriptors in its leaves. All of these differ only in key/value
// width, which is why the widths are parameters rather than types.
//
// Keys sort by bytes.Compare. Duplicate keys are allowed (two objects can
// share a Hilbert grid cell). Trees are write-once: BulkLoad builds each
// one bottom-up, as the paper builds its indexes, and nothing modifies it
// afterwards. Updates (§3.6) reach the trees through core's WAL, memtable
// and compaction, which bulk-loads a new generation.
package bptree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/hd-index/hdindex/internal/pager"
)

const (
	pageInternal = 1
	pageLeaf     = 2

	// Leaf layout: [1B type][8B left][8B right][2B count], LeafCap keys,
	// then from the next 8-byte boundary (valOff) LeafCap values, so the
	// values of consecutive entries are one aligned run.
	leafHeader = 1 + 8 + 8 + 2

	// Internal layout: [1B type][2B count] + (count+1)*8B children + count*keyLen keys.
	internalHeader = 1 + 2

	// The leaf layout a header records. Earlier versions interleaved
	// keys and values; Open detects such a tree and reads none of it.
	layoutInterleaved = 0
	layoutSplit       = 1

	maxLeafCap = 1<<16 - 1 // what the 2-byte leaf count holds
)

// Errors returned by the tree.
var (
	ErrKeyLen    = errors.New("bptree: key length mismatch")
	ErrValueLen  = errors.New("bptree: value length mismatch")
	ErrNotSorted = errors.New("bptree: bulk load input not sorted")
	ErrCorrupt   = errors.New("bptree: corrupt node")
	// ErrOldLayout is Open's answer to a tree of an older layout, which
	// holds nothing its owner cannot derive again: the interleaved leaves
	// here, and the RDB-tree's float32 distances.
	ErrOldLayout = errors.New("bptree: tree of an older layout")
)

// Config fixes the entry geometry of a tree.
type Config struct {
	KeyLen int // bytes per key, > 0
	ValLen int // bytes per value, >= 0

	// LeafCap overrides the computed leaf capacity when positive.
	LeafCap int
}

// Tree is a B+-tree in a pager file. A pager file holds exactly one tree.
// Safe for single-writer, multi-reader use (readers are distinct cursors).
type Tree struct {
	pgr       *pager.Pager
	keyLen    int
	valLen    int
	leafCap   int
	branchCap int // max separator keys per internal node
	root      pager.PageID
	height    int // 1 = root is a leaf
	count     uint64
	firstLeaf pager.PageID
	lastLeaf  pager.PageID
	extra     []byte // caller metadata persisted after the tree header

	// Entry i's key is at leafHeader + i·keyLen, its value at
	// valOff + i·valLen.
	valOff int
}

// Create initialises an empty tree in pgr (which must be freshly
// created): a single empty leaf as root, the file's next page. Create
// writes no page; the root leaf reaches the file as BulkLoad's first
// leaf, or empty at the first Flush.
func Create(pgr *pager.Pager, cfg Config) (*Tree, error) {
	t, err := newTree(pgr, cfg)
	if err != nil {
		return nil, err
	}
	t.root = pager.PageID(pgr.PageCount())
	t.firstLeaf = t.root
	t.lastLeaf = t.root
	t.height = 1
	return t, t.writeHeader()
}

// Open loads an existing tree from pgr's metadata; a tree in the
// interleaved layout is ErrOldLayout.
func Open(pgr *pager.Pager) (*Tree, error) {
	meta := pgr.Meta()
	if len(meta) < headerSize {
		return nil, fmt.Errorf("%w: short tree header", ErrCorrupt)
	}
	switch got := int(binary.BigEndian.Uint16(meta[8:])); got {
	case layoutSplit:
	case layoutInterleaved:
		return nil, fmt.Errorf("%w: interleaved leaves", ErrOldLayout)
	default:
		return nil, fmt.Errorf("%w: leaf layout %d, want %d", ErrCorrupt, got, layoutSplit)
	}
	cfg := Config{
		KeyLen:  int(binary.BigEndian.Uint32(meta[0:])),
		ValLen:  int(binary.BigEndian.Uint32(meta[4:])),
		LeafCap: int(binary.BigEndian.Uint16(meta[10:])),
	}
	t, err := newTree(pgr, cfg)
	if err != nil {
		return nil, err
	}
	t.root = pager.PageID(binary.BigEndian.Uint64(meta[12:]))
	t.height = int(binary.BigEndian.Uint32(meta[20:]))
	t.count = binary.BigEndian.Uint64(meta[24:])
	t.firstLeaf = pager.PageID(binary.BigEndian.Uint64(meta[32:]))
	t.lastLeaf = pager.PageID(binary.BigEndian.Uint64(meta[40:]))
	t.extra = append([]byte(nil), meta[headerSize:]...)
	// Each level holds at least one page, so a descent never pins more
	// pages than the file has, even through a cycle of corrupt links.
	if t.height < 1 || uint64(t.height) >= pgr.PageCount() {
		return nil, fmt.Errorf("%w: height %d in a file of %d pages", ErrCorrupt, t.height, pgr.PageCount())
	}
	return t, nil
}

func newTree(pgr *pager.Pager, cfg Config) (*Tree, error) {
	if cfg.KeyLen <= 0 {
		return nil, fmt.Errorf("bptree: KeyLen must be positive, got %d", cfg.KeyLen)
	}
	if cfg.ValLen < 0 {
		return nil, fmt.Errorf("bptree: ValLen must be >= 0, got %d", cfg.ValLen)
	}
	ps := pgr.PageSize()
	// The value run starts at an 8-byte boundary: up to 7 bytes of pad.
	maxLeaf := min((ps-leafHeader-7)/(cfg.KeyLen+cfg.ValLen), maxLeafCap)
	if maxLeaf < 1 {
		return nil, fmt.Errorf("bptree: entry size %d does not fit page size %d", cfg.KeyLen+cfg.ValLen, ps)
	}
	leafCap := maxLeaf
	if cfg.LeafCap > 0 {
		if cfg.LeafCap > maxLeaf {
			return nil, fmt.Errorf("bptree: LeafCap %d exceeds page capacity %d", cfg.LeafCap, maxLeaf)
		}
		leafCap = cfg.LeafCap
	}
	branchCap := (ps - internalHeader - 8) / (cfg.KeyLen + 8)
	if branchCap < 2 {
		return nil, fmt.Errorf("bptree: key length %d too large for page size %d", cfg.KeyLen, ps)
	}
	return &Tree{
		pgr:       pgr,
		keyLen:    cfg.KeyLen,
		valLen:    cfg.ValLen,
		leafCap:   leafCap,
		branchCap: branchCap,
		valOff:    (leafHeader + leafCap*cfg.KeyLen + 7) &^ 7,
	}, nil
}

const headerSize = 48

func (t *Tree) writeHeader() error {
	meta := make([]byte, headerSize, headerSize+len(t.extra))
	binary.BigEndian.PutUint32(meta[0:], uint32(t.keyLen))
	binary.BigEndian.PutUint32(meta[4:], uint32(t.valLen))
	binary.BigEndian.PutUint16(meta[8:], layoutSplit)
	binary.BigEndian.PutUint16(meta[10:], uint16(t.leafCap))
	binary.BigEndian.PutUint64(meta[12:], uint64(t.root))
	binary.BigEndian.PutUint32(meta[20:], uint32(t.height))
	binary.BigEndian.PutUint64(meta[24:], t.count)
	binary.BigEndian.PutUint64(meta[32:], uint64(t.firstLeaf))
	binary.BigEndian.PutUint64(meta[40:], uint64(t.lastLeaf))
	meta = append(meta, t.extra...)
	return t.pgr.SetMeta(meta)
}

// Extra returns caller metadata persisted with the tree header.
func (t *Tree) Extra() []byte { return append([]byte(nil), t.extra...) }

// SetExtra stores caller metadata with the tree header; it is persisted
// on the next Flush or BulkLoad.
func (t *Tree) SetExtra(extra []byte) error {
	t.extra = append([]byte(nil), extra...)
	return t.writeHeader()
}

// Count returns the number of entries.
func (t *Tree) Count() uint64 { return t.count }

// KeyLen returns the key width in bytes.
func (t *Tree) KeyLen() int { return t.keyLen }

// ValLen returns the value width in bytes.
func (t *Tree) ValLen() int { return t.valLen }

// LeafCap returns the leaf order Ω (entries per leaf page).
func (t *Tree) LeafCap() int { return t.leafCap }

// Pager exposes the underlying pager (for stats and closing).
func (t *Tree) Pager() *pager.Pager { return t.pgr }

// Flush persists the header, and the empty root leaf of a tree Create
// made that no BulkLoad has written. Every other page reached the file
// when BulkLoad wrote it.
func (t *Tree) Flush() error {
	if uint64(t.root) == t.pgr.PageCount() {
		leaf := make([]byte, t.pgr.PageSize())
		initLeaf(leaf)
		if err := t.pgr.Write(t.root, leaf); err != nil {
			return err
		}
	}
	if err := t.writeHeader(); err != nil {
		return err
	}
	return t.pgr.Flush()
}

// ---- node accessors -------------------------------------------------------

func initLeaf(data []byte) {
	for i := range data[:leafHeader] {
		data[i] = 0
	}
	data[0] = pageLeaf
}

func initInternal(data []byte) {
	data[0] = pageInternal
	data[1], data[2] = 0, 0
}

func nodeType(data []byte) byte { return data[0] }

func leafCount(data []byte) int {
	return int(binary.BigEndian.Uint16(data[17:19]))
}

func setLeafCount(data []byte, n int) {
	binary.BigEndian.PutUint16(data[17:19], uint16(n))
}

func leafLeft(data []byte) pager.PageID {
	return pager.PageID(binary.BigEndian.Uint64(data[1:9]))
}

func setLeafLeft(data []byte, id pager.PageID) {
	binary.BigEndian.PutUint64(data[1:9], uint64(id))
}

func leafRight(data []byte) pager.PageID {
	return pager.PageID(binary.BigEndian.Uint64(data[9:17]))
}

func setLeafRight(data []byte, id pager.PageID) {
	binary.BigEndian.PutUint64(data[9:17], uint64(id))
}

func (t *Tree) leafKey(data []byte, i int) []byte {
	off := leafHeader + i*t.keyLen
	return data[off : off+t.keyLen]
}

func (t *Tree) leafVal(data []byte, i int) []byte {
	off := t.valOff + i*t.valLen
	return data[off : off+t.valLen]
}

// leafVals is the values of entries [lo, hi) as one run.
func (t *Tree) leafVals(data []byte, lo, hi int) []byte {
	return data[t.valOff+lo*t.valLen : t.valOff+hi*t.valLen]
}

func internalCount(data []byte) int {
	return int(binary.BigEndian.Uint16(data[1:3]))
}

func setInternalCount(data []byte, n int) {
	binary.BigEndian.PutUint16(data[1:3], uint16(n))
}

func internalChild(data []byte, i int) pager.PageID {
	off := internalHeader + i*8
	return pager.PageID(binary.BigEndian.Uint64(data[off : off+8]))
}

func setInternalChild(data []byte, i int, id pager.PageID) {
	off := internalHeader + i*8
	binary.BigEndian.PutUint64(data[off:off+8], uint64(id))
}

func (t *Tree) internalKeyOff(i int) int {
	return internalHeader + (t.branchCap+1)*8 + i*t.keyLen
}

func (t *Tree) internalKey(data []byte, i int) []byte {
	off := t.internalKeyOff(i)
	return data[off : off+t.keyLen]
}

// childIndex returns the index of the child subtree to descend into for
// key: the number of separator keys <= key.
func (t *Tree) childIndex(data []byte, key []byte) int {
	n := internalCount(data)
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(t.internalKey(data, mid), key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// leafLowerBound returns the first index in the leaf with key >= key.
func (t *Tree) leafLowerBound(data []byte, key []byte) int {
	n := leafCount(data)
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(t.leafKey(data, mid), key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// descend walks from the root to the leaf that should contain key and
// returns that leaf's page id for the caller to pin. Each internal page
// on the way is checked once, for its type and its separator count, so
// a corrupt page is an ErrCorrupt rather than a slice out of range.
func (t *Tree) descend(key []byte) (pager.PageID, error) {
	id := t.root
	for level := t.height; level > 1; level-- {
		v, err := t.pgr.View(id)
		if err != nil {
			return 0, err
		}
		if nodeType(v.Data) != pageInternal || internalCount(v.Data) > t.branchCap {
			v.Release()
			return 0, fmt.Errorf("%w: page %d is not an internal node within capacity (level %d)", ErrCorrupt, id, level)
		}
		id = internalChild(v.Data, t.childIndex(v.Data, key))
		v.Release()
	}
	return id, nil
}

// viewLeaf pins leaf id after checking, once per page, what every entry
// access on it relies on: the page is a leaf and its count fits the leaf
// capacity.
func (t *Tree) viewLeaf(id pager.PageID) (pager.View, error) {
	v, err := t.pgr.View(id)
	if err != nil {
		return v, err
	}
	if nodeType(v.Data) != pageLeaf || leafCount(v.Data) > t.leafCap {
		v.Release()
		return pager.View{}, fmt.Errorf("%w: page %d is not a leaf within capacity", ErrCorrupt, id)
	}
	return v, nil
}
