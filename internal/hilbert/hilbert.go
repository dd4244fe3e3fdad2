// Package hilbert implements the Hilbert space-filling curve for arbitrary
// dimensionality and order, following the Butz algorithm [19] in John
// Skilling's compact transpose formulation ("Programming the Hilbert
// curve", AIP 2004), which is the standard modern restatement of Butz.
//
// HD-Index (§3.1) passes one Hilbert curve of order ω through each of the
// τ dimension partitions (η = ν/τ dimensions each). The single-dimensional
// position of an object's grid cell along the curve is its Hilbert key;
// the keys are what the RDB-trees index. A full key is the curve index as
// a big-endian byte string of ⌈η·ω/8⌉ bytes (front padding bits zero), so
// bytes.Compare gives curve order — exactly the property a B+-tree needs.
//
// A curve also has a key width w ≤ ⌈η·ω/8⌉ (NewPrefix): its key is the
// first w bytes of the full key, and only those are computed. Skilling's
// transform changes a bit plane only from the planes above it, so those
// bytes are the transform of the coordinates' top c = ⌈(8w − pad)/η⌉
// planes alone (pad the full key's front padding bits). An RDB-tree
// stores w = min(⌈η·ω/8⌉, 8) bytes: at η = 16 that is the top 4 planes
// of each coordinate, whatever ω is.
//
// The package also provides the Z-order (Morton) curve with the same key
// format, the same encoder without the transform, used by the ablation
// benchmarks: the paper cites the Hilbert curve as the most appropriate
// space-filling curve for indexing [37], and the ablation quantifies that
// choice.
package hilbert

import (
	"fmt"
	"slices"
)

// Kind names a space-filling curve.
type Kind uint8

const (
	// HilbertCurve is the Hilbert curve: Skilling's transform, then the
	// bit interleave.
	HilbertCurve Kind = iota
	// ZOrderCurve is the Z-order (Morton) curve: the bit interleave alone.
	ZOrderCurve
)

// Curve maps points on a dims-dimensional grid with 2^order cells per
// side to keys along a space-filling curve. At full width (New) it is a
// bijection from [0,2^order)^dims onto [0, 2^(dims·order)) and Decode
// inverts it.
type Curve struct {
	kind   Kind
	dims   int
	order  int
	keyLen int // bytes per key: w
	planes int // the top bit planes of each coordinate a key holds: c
	pad    int // front padding bits of the full key, 0..7
}

// New returns the Hilbert curve over dims dimensions with the given order
// (bits per dimension, 1..32) and full-width keys. The paper uses ω ∈ {8,
// 16, 32} (Table 3).
func New(dims, order int) (*Curve, error) {
	return NewPrefix(HilbertCurve, dims, order, (dims*order+7)/8)
}

// NewPrefix returns the curve of the given kind over dims dimensions of
// the given order whose keys are the first keyLen bytes of its full keys,
// 1 ≤ keyLen ≤ ⌈dims·order/8⌉.
func NewPrefix(kind Kind, dims, order, keyLen int) (*Curve, error) {
	if dims < 1 {
		return nil, fmt.Errorf("hilbert: dims must be >= 1, got %d", dims)
	}
	if order < 1 || order > 32 {
		return nil, fmt.Errorf("hilbert: order must be in [1,32], got %d", order)
	}
	full := (dims*order + 7) / 8
	if keyLen < 1 || keyLen > full {
		return nil, fmt.Errorf("hilbert: key width must be in [1,%d], got %d", full, keyLen)
	}
	pad := full*8 - dims*order
	planes := min(order, (keyLen*8-pad+dims-1)/dims)
	return &Curve{kind: kind, dims: dims, order: order, keyLen: keyLen, planes: planes, pad: pad}, nil
}

// KeyLen returns the number of bytes in a key.
func (c *Curve) KeyLen() int { return c.keyLen }

// Encode appends the key of coords to dst and returns the extended
// slice. len(coords) must equal the curve's dims and every coordinate
// must fit in order bits; violations panic, as they are always caller
// bugs.
func (c *Curve) Encode(dst []byte, coords []uint32) []byte {
	if len(coords) != c.dims {
		panic("hilbert: coordinate count mismatch")
	}
	// The transform's scratch lives on the stack up to 64 dimensions (η =
	// 16 in every benchmark workload), so a query's per-tree key is free.
	var buf [64]uint32
	x := buf[:]
	if c.dims > len(buf) {
		x = make([]uint32, c.dims)
	}
	n := len(dst)
	dst = slices.Grow(dst, c.keyLen)[:n+c.keyLen]
	c.encode(dst[n:], coords, x[:c.dims])
	return dst
}

// EncodeAll encodes len(coords)/stride points into dst, KeyLen() bytes
// each, overwriting dst's prefix. stride must be >= dims; row i's
// coordinates are coords[i*stride : i*stride+dims]. It is Encode in a
// loop with the transform's scratch hoisted out — the bulk-construction
// path.
func (c *Curve) EncodeAll(dst []byte, coords []uint32, stride int) {
	if stride < c.dims {
		panic("hilbert: stride below dimensionality")
	}
	n := len(coords) / stride
	if len(dst) < n*c.keyLen {
		panic("hilbert: destination too short")
	}
	x := make([]uint32, c.dims)
	for i := range n {
		c.encode(dst[i*c.keyLen:(i+1)*c.keyLen], coords[i*stride:i*stride+c.dims], x)
	}
}

// encode is the one encoder: row's top planes into x, Skilling's
// transform on a Hilbert curve, and the interleave into out, keyLen
// bytes.
func (c *Curve) encode(out []byte, row, x []uint32) {
	maxv := maxCoord(c.order)
	shift := uint(c.order - c.planes)
	for i, v := range row {
		if v > maxv {
			panic("hilbert: coordinate exceeds order")
		}
		x[i] = v >> shift
	}
	if c.kind == HilbertCurve {
		axesToTranspose(x, c.planes)
	}
	// The bit stream cycles over dimensions fastest, bit planes from most
	// to least significant — the interleave that turns the transpose into
	// the integer Hilbert index — behind the full key's front padding, so
	// the big-endian bytes *are* the index, not merely order-equivalent.
	// Bits collect in a byte stored once full, so every output byte is
	// written exactly once and a reused arena needs no clearing.
	acc, nb, oi := byte(0), c.pad, 0
	for j := c.planes - 1; j >= 0; j-- {
		for _, v := range x {
			acc = acc<<1 | byte(v>>uint(j)&1)
			if nb++; nb == 8 {
				out[oi] = acc
				if oi++; oi == len(out) {
					return
				}
				acc, nb = 0, 0
			}
		}
	}
}

// Decode writes the grid coordinates of key into coords (length dims).
// Only a full-width key holds them all: on a prefix curve it panics.
func (c *Curve) Decode(key []byte, coords []uint32) {
	if len(coords) != c.dims {
		panic("hilbert: coordinate count mismatch")
	}
	if len(key) != c.keyLen || c.keyLen*8 != c.pad+c.dims*c.order {
		panic("hilbert: key length mismatch")
	}
	clear(coords)
	bit := c.pad
	for j := c.order - 1; j >= 0; j-- {
		for i := range coords {
			if key[bit>>3]&(0x80>>uint(bit&7)) != 0 {
				coords[i] |= 1 << uint(j)
			}
			bit++
		}
	}
	if c.kind == HilbertCurve {
		transposeToAxes(coords, c.order)
	}
}

func maxCoord(order int) uint32 {
	if order == 32 {
		return ^uint32(0)
	}
	return (1 << uint(order)) - 1
}

// axesToTranspose converts grid coordinates in x (b bits each) into the
// "transposed" Hilbert index representation, in place. Skilling 2004.
// The inner loop is branchless: on random data the original's 50/50
// branch mispredicts constantly, and this is the hottest loop of bulk
// construction (b·n iterations per point).
func axesToTranspose(x []uint32, b int) {
	n := len(x)
	var q, p, t uint32
	// Inverse undo excess work. Per element, either x[0] ^= p (bit q of
	// x[i] set) or x[0] and x[i] both ^= (x[0]^x[i])&p; the mask m
	// selects between the two without a branch. x[0] lives in x0 for the
	// pass (its own step is the first line), so the chain through it stays
	// in a register instead of a store and a reload per element.
	for shift := b - 1; shift > 0; shift-- {
		q = 1 << uint(shift)
		p = q - 1
		x0 := x[0] ^ p&-((x[0]>>uint(shift))&1)
		for i := 1; i < n; i++ {
			xi := x[i]
			m := -((xi >> uint(shift)) & 1) // all-ones iff bit q set
			t = (x0 ^ xi) & p &^ m
			x0 ^= (p & m) | t
			x[i] = xi ^ t
		}
		x[0] = x0
	}
	// Gray encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	t = 0
	for q = 1 << uint(b-1); q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
}

// transposeToAxes inverts axesToTranspose, in place.
func transposeToAxes(x []uint32, b int) {
	n := len(x)
	var q, p, t uint32
	// Gray decode by H ^ (H/2).
	t = x[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for q = 2; q != 1<<uint(b); q <<= 1 {
		p = q - 1
		for i := n - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t = (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
}
