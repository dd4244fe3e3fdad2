// Package rdbtree implements the paper's novel structure: the RDB-tree
// (Reference Distance B+-tree, §3.2).
//
// An RDB-tree is a B+-tree over Hilbert keys whose leaves do not store
// object descriptors, but each object's distances to the m reference
// objects, alongside its pointer — a 32-bit number this package never
// interprets (Entry.ID; core puts the object's slot in its vector store
// there). That leaf design is the paper's central trade: candidates
// fetched from a leaf can be filtered with the triangular and Ptolemaic
// inequalities (§4.2) without any further I/O, and the leaf order Ω
// stays high even at ν in the hundreds because m ≪ ν.
//
// Leaf entry: a key [the Hilbert key's first min(ceil(η·ω/8), 8) bytes]
// and, in bptree's aligned value run, a value [slot: uint32 LE][m ×
// uint16 LE codes] — so WalkNearest hands consecutive values out as a
// []uint16 in place. The key is cut to one big-endian machine word: past
// the build's sort, keys only seek the query's position and pick the
// nearer side, and on SIFT-like data at η = 16, ω = 8 the first 8 bytes
// picked the same α entries as the whole key in every walk measured. A
// distance is 16-bit fixed point: code u stands for u·s, where the scale
// s (distance per code unit) is the tree's own, recorded in its metadata
// beside an error bound ε, the most any decoded distance may differ from
// the one it was written for. A filter built from codes widens its bound
// by ε, so it stays a lower bound.
//
// LeafOrder is the paper's Eq. (4), Ω = max { (η·(ω/8) + 4m + 8)·Ω + 16
// + 1 ≤ B }, reproduced against Table 3 in the tests. A tree's own order
// is what the page physically holds: 127 against Eq. (4)'s 63 at SIFT
// geometry (16-byte Hilbert keys, m = 10, 4 KiB pages), 32 bytes an
// entry: an 8-byte key prefix, a 4-byte slot and 2m bytes of codes.
package rdbtree

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/hd-index/hdindex/internal/bptree"
	"github.com/hd-index/hdindex/internal/f32view"
	"github.com/hd-index/hdindex/internal/pager"
)

// Config fixes the geometry of an RDB-tree.
type Config struct {
	Eta   int // dimensions per Hilbert curve (η)
	Omega int // Hilbert curve order (ω)
	M     int // number of reference objects (m)
}

// KeyLen returns the Hilbert key width in bytes: ceil(η·ω/8), the
// width of a query key and of a BulkLoad record's key.
func (c Config) KeyLen() int { return (c.Eta*c.Omega + 7) / 8 }

// maxStoredKey is the widest key prefix a tree stores: one machine word.
const maxStoredKey = 8

// StoredKeyLen returns the width of the key prefix a tree stores, in
// its leaves, its separators and a BulkLoadArena row: min(KeyLen, 8).
func (c Config) StoredKeyLen() int { return min(c.KeyLen(), maxStoredKey) }

// ValLen returns the per-entry payload width: 4-byte slot + m codes.
func (c Config) ValLen() int { return 4 + 2*c.M }

// ErrIDRange rejects an entry whose pointer does not fit the 32-bit slot.
var ErrIDRange = errors.New("rdbtree: entry id does not fit 32 bits")

// LeafOrder evaluates the paper's Eq. (4): the largest Ω such that
// (η·(ω/8) + 4·m + 8)·Ω + 16 + 1 ≤ B.
func LeafOrder(pageSize, eta, omega, m int) int {
	entry := eta*omega/8 + 4*m + 8
	if eta*omega%8 != 0 {
		entry++ // ceil for orders not a multiple of 8 bits
	}
	return (pageSize - 17) / entry
}

// Entry is one leaf record: an object pointer plus its reference
// distances, decoded.
type Entry struct {
	ID       uint64
	RefDists []float32
}

const (
	// codeMax is the largest code: distances are 16-bit fixed point.
	codeMax = math.MaxUint16
	// roundErr is, in code units, what one write adds to a distance's
	// error: half a code of rounding, plus float32's rounding of the
	// distance the writer was handed (under 2⁻²⁴ of codeMax codes).
	roundErr = 0.5 + 1.0/256
	// minScale is the scale of a tree whose distances are all zero: it
	// codes them exactly and keeps a query distance over it finite.
	minScale = 0x1p-100
)

// Scale is a tree's fixed-point code: code u stands for the distance
// u·S, which lies within Eps of the distance the entry was written for.
type Scale struct {
	S, Eps float64
}

// Decode is the distance code u stands for.
func (sc Scale) Decode(u uint16) float64 { return float64(u) * sc.S }

// extend is the scale for distances up to maxd, some decoded at scale
// prev (zero for none). While prev covers maxd (to half a code past
// codeMax) it stays, and so does every re-encoded code; a wider range
// coarsens the codes, each erring by its old ε plus the new rounding.
func (prev Scale) extend(maxd float64) Scale {
	if prev.S > 0 && maxd <= (codeMax+0.5)*prev.S {
		return prev
	}
	s := max(maxd/codeMax, minScale)
	return Scale{S: s, Eps: prev.Eps + s*roundErr}
}

// Tree is an RDB-tree in a single pager file.
type Tree struct {
	bt    *bptree.Tree
	cfg   Config
	scale Scale
}

// Create initialises an empty RDB-tree in a fresh pager file.
func Create(pgr *pager.Pager, cfg Config) (*Tree, error) {
	if cfg.Eta < 1 || cfg.Omega < 1 || cfg.Omega > 32 || cfg.M < 1 {
		return nil, fmt.Errorf("rdbtree: invalid config %+v", cfg)
	}
	bt, err := bptree.Create(pgr, bptree.Config{
		KeyLen: cfg.StoredKeyLen(),
		ValLen: cfg.ValLen(),
	})
	if err != nil {
		return nil, err
	}
	t := &Tree{bt: bt, cfg: cfg, scale: Scale{}.extend(0)}
	return t, t.writeExtra()
}

// extraLen is the metadata after bptree's header: η, ω and m as
// big-endian uint32s (the float32 layout's all), then s and ε as float64s.
const extraLen = 12 + 16

// Open loads an RDB-tree from an existing pager file. A tree of an
// older layout — interleaved leaves, m float32 distances per value, or
// full Hilbert keys wider than the stored prefix — is
// bptree.ErrOldLayout; metadata that names no usable scale is an error.
func Open(pgr *pager.Pager) (*Tree, error) {
	bt, err := bptree.Open(pgr)
	if err != nil {
		return nil, err
	}
	extra := bt.Extra()
	if len(extra) < 12 {
		return nil, errors.New("rdbtree: missing config metadata")
	}
	cfg := Config{
		Eta:   int(binary.BigEndian.Uint32(extra[0:])),
		Omega: int(binary.BigEndian.Uint32(extra[4:])),
		M:     int(binary.BigEndian.Uint32(extra[8:])),
	}
	if len(extra) == 12 && bt.ValLen() == 4+4*cfg.M {
		return nil, fmt.Errorf("%w: float32 distances", bptree.ErrOldLayout)
	}
	if len(extra) == extraLen && bt.KeyLen() > maxStoredKey && bt.KeyLen() == cfg.KeyLen() && bt.ValLen() == cfg.ValLen() {
		return nil, fmt.Errorf("%w: %d-byte keys", bptree.ErrOldLayout, bt.KeyLen())
	}
	if len(extra) != extraLen || cfg.StoredKeyLen() != bt.KeyLen() || cfg.ValLen() != bt.ValLen() {
		return nil, errors.New("rdbtree: config/tree geometry mismatch")
	}
	sc := Scale{
		S:   math.Float64frombits(binary.BigEndian.Uint64(extra[12:])),
		Eps: math.Float64frombits(binary.BigEndian.Uint64(extra[20:])),
	}
	if !(sc.S > 0) || math.IsInf(sc.S, 0) || !(sc.Eps >= 0) || math.IsInf(sc.Eps, 0) {
		return nil, fmt.Errorf("rdbtree: scale %v with error bound %v", sc.S, sc.Eps)
	}
	return &Tree{bt: bt, cfg: cfg, scale: sc}, nil
}

func (t *Tree) writeExtra() error {
	extra := make([]byte, extraLen)
	binary.BigEndian.PutUint32(extra[0:], uint32(t.cfg.Eta))
	binary.BigEndian.PutUint32(extra[4:], uint32(t.cfg.Omega))
	binary.BigEndian.PutUint32(extra[8:], uint32(t.cfg.M))
	binary.BigEndian.PutUint64(extra[12:], math.Float64bits(t.scale.S))
	binary.BigEndian.PutUint64(extra[20:], math.Float64bits(t.scale.Eps))
	return t.bt.SetExtra(extra)
}

// Config returns the tree's geometry.
func (t *Tree) Config() Config { return t.cfg }

// Scale returns the tree's code scale s and error bound ε.
func (t *Tree) Scale() Scale { return t.scale }

// Count returns the number of indexed objects.
func (t *Tree) Count() uint64 { return t.bt.Count() }

// LeafOrder returns the effective leaf order Ω.
func (t *Tree) LeafOrder() int { return t.bt.LeafCap() }

// Pager exposes the underlying pager for stats and closing.
func (t *Tree) Pager() *pager.Pager { return t.bt.Pager() }

// Flush persists all state.
func (t *Tree) Flush() error { return t.bt.Flush() }

// decodeValueInto decodes into caller-provided RefDists storage (len m).
func (t *Tree) decodeValueInto(v []byte, rd []float32) Entry {
	for i := range rd {
		rd[i] = float32(t.scale.Decode(binary.LittleEndian.Uint16(v[4+2*i:])))
	}
	return Entry{ID: uint64(binary.LittleEndian.Uint32(v)), RefDists: rd}
}

// Record is bulk-load input: a pre-computed Hilbert key (KeyLen wide;
// the tree stores its prefix), the object id, and the object's distances
// to the m reference objects.
type Record struct {
	Key      []byte
	ID       uint64
	RefDists []float32
}

// BulkLoad builds the tree from records sorted by Key (Algorithm 1,
// lines 8–10), through BulkLoadArena of fresh distances. An ID past 32
// bits is ErrIDRange.
func (t *Tree) BulkLoad(records []Record) error {
	kl, w, m, n := t.cfg.KeyLen(), t.cfg.StoredKeyLen(), t.cfg.M, len(records)
	keys, rdist := make([]byte, 0, n*w), make([]float32, 0, n*m)
	perm, ids := make([]uint32, n), make([]uint64, n)
	for i, r := range records {
		if len(r.Key) != kl || len(r.RefDists) != m {
			return fmt.Errorf("rdbtree: record %d has a %d-byte key and %d distances, want %d and %d", i, len(r.Key), len(r.RefDists), kl, m)
		}
		keys = append(keys, r.Key[:w]...)
		rdist = append(rdist, r.RefDists...)
		perm[i], ids[i] = uint32(i), r.ID
	}
	return t.BulkLoadArena(keys, perm, ids, rdist, Scale{})
}

// BulkLoadArena builds the tree from flat construction arenas — the
// zero-copy counterpart of BulkLoad that the radix-sorted build path
// streams from. keys holds one StoredKeyLen()-wide row per object, the
// prefix of its Hilbert key, in object order (never reordered; row r is
// keys[r*w:(r+1)*w]), rdist the matching M-wide float32 rows, and perm
// lists row numbers in ascending key order (radix.Sort's output). ids
// maps a row number to its object id; nil means the row number is the
// id, which is exactly the shape core's build produces. Nothing is
// allocated per record: the leaf writer copies straight out of the
// arenas through one reused value buffer. An id past 32 bits is
// ErrIDRange.
//
// The tree's scale covers the largest distance in rdist. prev is the
// scale of the tree some rows were decoded from (a compaction's old
// tree; the zero Scale when every distance is fresh): while it covers
// every row the tree keeps it, so those rows keep their codes exactly.
func (t *Tree) BulkLoadArena(keys []byte, perm []uint32, ids []uint64, rdist []float32, prev Scale) error {
	n := len(perm)
	w, m := t.cfg.StoredKeyLen(), t.cfg.M
	if len(keys) != n*w {
		return fmt.Errorf("rdbtree: key arena holds %d bytes, want %d rows × %d", len(keys), n, w)
	}
	if len(rdist) != n*m {
		return fmt.Errorf("rdbtree: refdist arena holds %d floats, want %d rows × %d", len(rdist), n, m)
	}
	if ids != nil && len(ids) != n {
		return fmt.Errorf("rdbtree: got %d ids for %d rows", len(ids), n)
	}
	if i := slices.IndexFunc(ids, func(id uint64) bool { return id > math.MaxUint32 }); i >= 0 {
		return fmt.Errorf("%w: row %d has id %d", ErrIDRange, i, ids[i])
	}
	var maxd float32
	for i, d := range rdist {
		if !(d >= 0 && d <= math.MaxFloat32) {
			return fmt.Errorf("rdbtree: row %d holds distance %v", i/m, d)
		}
		maxd = max(maxd, d)
	}
	old := t.scale
	t.scale = prev.extend(float64(maxd))
	err := t.writeExtra()
	if err == nil {
		err = t.bt.BulkLoad(&arenaSource{
			t: t, keys: keys, perm: perm, ids: ids, rdist: rdist,
			buf: make([]byte, t.cfg.ValLen()), inv: 1 / t.scale.S,
		})
	}
	if err != nil { // a refused load leaves the tree's scale as it was
		t.scale = old
		_ = t.writeExtra() // it fitted before
	}
	return err
}

type arenaSource struct {
	t     *Tree
	keys  []byte
	perm  []uint32
	ids   []uint64
	rdist []float32
	buf   []byte
	inv   float64 // codes per unit of distance, 1/s
	i     int
}

func (s *arenaSource) Next() (key, value []byte, ok bool) {
	if s.i >= len(s.perm) {
		return nil, nil, false
	}
	row := int(s.perm[s.i])
	s.i++
	w, m := s.t.cfg.StoredKeyLen(), s.t.cfg.M
	id := uint64(row)
	if s.ids != nil {
		id = s.ids[row]
	}
	binary.LittleEndian.PutUint32(s.buf, uint32(id))
	for i, d := range s.rdist[row*m : (row+1)*m] {
		u := min(float64(d)*s.inv+0.5, codeMax) // truncated: the nearest code
		binary.LittleEndian.PutUint16(s.buf[4+2*i:], uint16(u))
	}
	return s.keys[row*w : (row+1)*w], s.buf, true
}

// WalkNearest is the candidate retrieval of §4.1, one bptree.WalkNearest
// over the leaf chain: it passes fn up to alpha entries whose Hilbert
// keys are numerically nearest to key, in bptree's runs (a descending
// one lists its entries nearest last). key is a full Hilbert key, KeyLen
// bytes (any other width is an error); the walk compares its stored
// prefix, so two entries whose prefixes tie are equally near, and the
// right side goes first. Entry e of a run is
// run[e*(2+m):(e+1)*(2+m)]: its slot (Slot) in two words, then its m
// codes (Scale), viewed in place (or decoded) and valid only until fn
// returns. A cancelled ctx stops the walk within the leaves it has pinned.
func (t *Tree) WalkNearest(ctx context.Context, key []byte, alpha int, fn func(run []uint16, descending bool)) error {
	if alpha < 1 {
		return fmt.Errorf("rdbtree: alpha must be >= 1, got %d", alpha)
	}
	if len(key) != t.cfg.KeyLen() {
		return fmt.Errorf("rdbtree: query key of %d bytes, want %d", len(key), t.cfg.KeyLen())
	}
	var scratch []uint16
	return t.bt.WalkNearest(ctx, key[:t.cfg.StoredKeyLen()], alpha, func(run []byte, descending bool) {
		var words []uint16
		words, scratch = viewRun(run, scratch)
		fn(words, descending)
	})
}

// viewRun is run's little-endian words as uint16s: viewed in place, or
// decoded into scratch, which it returns for the next run.
func viewRun(run []byte, scratch []uint16) (words, grown []uint16) {
	n := len(run) / 2
	if f32view.Viewable[uint16](run) {
		return f32view.Cast[uint16](run, n), scratch
	}
	scratch = slices.Grow(scratch[:0], n)[:n]
	for i := range scratch {
		scratch[i] = binary.LittleEndian.Uint16(run[2*i:])
	}
	return scratch, scratch
}

// Slot is the pointer of a run's entry: its first two words.
func Slot(entry []uint16) uint64 { return uint64(entry[0]) | uint64(entry[1])<<16 }

// SearchNearestInto is WalkNearest collecting the entries decoded, in
// walk order: dst receives them, entry i's RefDists is arena[i*m:(i+1)*m],
// and both are reused when large enough (nil is fine) and returned on
// every path, so a pooling caller keeps them for the next call.
func (t *Tree) SearchNearestInto(ctx context.Context, key []byte, alpha int, dst []Entry, arena []float32) ([]Entry, []float32, error) {
	m := t.cfg.M
	w := 2 + m
	out, arena := dst[:0], arena[:0]
	if cap(out) < alpha {
		out = make([]Entry, 0, alpha)
	}
	if cap(arena) < alpha*m {
		arena = make([]float32, 0, alpha*m)
	}
	err := t.WalkNearest(ctx, key, alpha, func(run []uint16, descending bool) {
		n := len(run) / w
		at := len(arena)
		arena = slices.Grow(arena, n*m)[:at+n*m]
		for i := range n {
			e := i
			if descending {
				e = n - 1 - i
			}
			entry, rd := run[e*w:(e+1)*w], arena[at+i*m:at+(i+1)*m:at+(i+1)*m]
			for j, u := range entry[2:] {
				rd[j] = float32(t.scale.Decode(u))
			}
			out = append(out, Entry{ID: Slot(entry), RefDists: rd})
		}
	})
	return out, arena, err
}

// ScanAll invokes fn for every entry in key order, with its stored key
// prefix, decoded; used by compaction, integrity checks and tests. The
// Entry's RefDists alias one scratch slice reused across callbacks —
// valid only for the duration of fn; copy to retain.
func (t *Tree) ScanAll(fn func(key []byte, e Entry) bool) error {
	rd := make([]float32, t.cfg.M)
	return t.bt.Scan(nil, nil, func(k, v []byte) bool {
		return fn(k, t.decodeValueInto(v, rd))
	})
}

// Check is ScanAll with the tree verified as it is walked
// (bptree.CheckLeaves: separators, depth, sibling links, key order,
// counts); fn's first error stops it. The Entry's RefDists alias one
// scratch slice, as in ScanAll.
func (t *Tree) Check(fn func(key []byte, e Entry) error) error {
	rd := make([]float32, t.cfg.M)
	return t.bt.CheckLeaves(func(k, v []byte) error {
		return fn(k, t.decodeValueInto(v, rd))
	})
}
