// Package hilbert implements the Hilbert space-filling curve for arbitrary
// dimensionality and order, following the Butz algorithm [19] in John
// Skilling's compact transpose formulation ("Programming the Hilbert
// curve", AIP 2004), which is the standard modern restatement of Butz.
//
// HD-Index (§3.1) passes one Hilbert curve of order ω through each of the
// τ dimension partitions (η = ν/τ dimensions each). The single-dimensional
// position of an object's grid cell along the curve is its Hilbert key;
// the keys are what the RDB-trees index. Keys here are big-endian byte
// strings of ceil(η·ω/8) bytes so that bytes.Compare gives curve order —
// exactly the property a B+-tree needs.
//
// The package also provides a Z-order (Morton) curve with the same key
// format, used by the ablation benchmarks: the paper cites the Hilbert
// curve as the most appropriate space-filling curve for indexing [37],
// and the ablation quantifies that choice.
package hilbert

import "fmt"

// Curve maps points on a dims-dimensional grid with 2^order cells per side
// to keys along a space-filling curve and back. Implementations must be
// bijections from [0,2^order)^dims onto [0, 2^(dims·order)).
type Curve interface {
	// KeyLen returns the key size in bytes: ceil(dims·order/8).
	KeyLen() int
	// Encode appends the key of coords to dst and returns it.
	// Each coordinate must be < 2^order.
	Encode(dst []byte, coords []uint32) []byte
	// EncodeAll encodes a batch of points held row-major in coords
	// (stride uint32s apart, the first dims of each row being the
	// coordinates) into dst, KeyLen() bytes per point, overwriting
	// dst's prefix. It is Encode in a loop with the per-call scratch
	// and validation hoisted out — the bulk-construction fast path.
	EncodeAll(dst []byte, coords []uint32, stride int)
	// Decode writes the grid coordinates of key into coords.
	Decode(key []byte, coords []uint32)
}

// Hilbert is a Curve following the Hilbert space-filling curve.
type Hilbert struct {
	dims   int
	order  int
	keyLen int
}

// New returns a Hilbert curve over dims dimensions with the given order
// (bits per dimension, 1..32). The paper uses ω ∈ {8, 16, 32} (Table 3).
func New(dims, order int) (*Hilbert, error) {
	if dims < 1 {
		return nil, fmt.Errorf("hilbert: dims must be >= 1, got %d", dims)
	}
	if order < 1 || order > 32 {
		return nil, fmt.Errorf("hilbert: order must be in [1,32], got %d", order)
	}
	return &Hilbert{dims: dims, order: order, keyLen: (dims*order + 7) / 8}, nil
}

// MustNew is New for known-good parameters; it panics on error.
func MustNew(dims, order int) *Hilbert {
	h, err := New(dims, order)
	if err != nil {
		panic(err)
	}
	return h
}

// KeyLen returns the number of bytes in a key.
func (h *Hilbert) KeyLen() int { return h.keyLen }

// Encode appends the Hilbert key of coords to dst and returns the extended
// slice. len(coords) must equal the curve's dims and every coordinate
// must fit in order bits; violations panic, as they are always caller
// bugs.
func (h *Hilbert) Encode(dst []byte, coords []uint32) []byte {
	if len(coords) != h.dims {
		panic("hilbert: coordinate count mismatch")
	}
	// The transpose scratch lives on the stack up to 64 dimensions (η =
	// 16 in every benchmark workload), so a query's per-tree key is free.
	var buf [64]uint32
	var x []uint32
	if h.dims <= len(buf) {
		x = buf[:h.dims]
	} else {
		x = make([]uint32, h.dims)
	}
	maxv := maxCoord(h.order)
	for i, c := range coords {
		if c > maxv {
			panic("hilbert: coordinate exceeds order")
		}
		x[i] = c
	}
	axesToTranspose(x, h.order)
	return packTransposed(dst, x, h.dims, h.order)
}

// EncodeAll encodes len(coords)/stride points into dst (KeyLen() bytes
// each, overwritten in place). stride must be >= dims; row i's
// coordinates are coords[i*stride : i*stride+dims]. Unlike Encode,
// which allocates its transpose scratch per call above 64 dimensions,
// the scratch here is hoisted out of the loop — per-point cost is pure
// transform + pack.
func (h *Hilbert) EncodeAll(dst []byte, coords []uint32, stride int) {
	if stride < h.dims {
		panic("hilbert: stride below dimensionality")
	}
	n := len(coords) / stride
	if len(dst) < n*h.keyLen {
		panic("hilbert: destination too short")
	}
	x := make([]uint32, h.dims)
	maxv := maxCoord(h.order)
	for i := 0; i < n; i++ {
		row := coords[i*stride : i*stride+h.dims]
		for d, c := range row {
			if c > maxv {
				panic("hilbert: coordinate exceeds order")
			}
			x[d] = c
		}
		axesToTranspose(x, h.order)
		packTransposedInto(dst[i*h.keyLen:(i+1)*h.keyLen], x, h.dims, h.order)
	}
}

// Decode writes the grid coordinates of key into coords (length dims).
func (h *Hilbert) Decode(key []byte, coords []uint32) {
	if len(coords) != h.dims {
		panic("hilbert: coordinate count mismatch")
	}
	if len(key) != h.keyLen {
		panic("hilbert: key length mismatch")
	}
	unpackTransposed(key, coords, h.dims, h.order)
	transposeToAxes(coords, h.order)
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
	// selects between the two without a branch.
	for shift := b - 1; shift > 0; shift-- {
		q = 1 << uint(shift)
		p = q - 1
		for i := 0; i < n; i++ {
			m := -((x[i] >> uint(shift)) & 1) // all-ones iff bit q set
			t = (x[0] ^ x[i]) & p &^ m
			x[0] ^= (p & m) | t
			x[i] ^= t
		}
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

// packTransposed serialises the transposed representation into the key:
// the bit stream cycles over dimensions fastest, bit-planes from most to
// least significant — the interleaving that turns the transpose into the
// integer Hilbert index. The stream is right-aligned in the key (front
// padding bits are zero) so that the big-endian byte string *is* the
// index numerically, not merely order-equivalent.
func packTransposed(dst []byte, x []uint32, n, b int) []byte {
	keyLen := (n*b + 7) / 8
	start := len(dst)
	for i := 0; i < keyLen; i++ {
		dst = append(dst, 0)
	}
	packTransposedInto(dst[start:], x, n, b)
	return dst
}

// packTransposedInto is packTransposed writing into an existing
// keyLen-byte slice. Bits stream MSB-first through a byte accumulator
// that is stored once full — every output byte is written exactly once
// (so reused arenas need no pre-clearing), and the per-bit work is a
// shift-or instead of an indexed read-modify-write.
func packTransposedInto(out []byte, x []uint32, n, b int) {
	keyLen := (n*b + 7) / 8
	acc := byte(0)
	nb := keyLen*8 - n*b // front padding: 0..7 leading zero bits
	oi := 0
	for j := b - 1; j >= 0; j-- {
		for i := 0; i < n; i++ {
			acc = acc<<1 | byte((x[i]>>uint(j))&1)
			nb++
			if nb == 8 {
				out[oi] = acc
				oi++
				acc, nb = 0, 0
			}
		}
	}
}

// unpackTransposed inverts packTransposed.
func unpackTransposed(key []byte, x []uint32, n, b int) {
	for i := range x {
		x[i] = 0
	}
	keyLen := (n*b + 7) / 8
	bit := keyLen*8 - n*b
	for j := b - 1; j >= 0; j-- {
		for i := 0; i < n; i++ {
			if key[bit>>3]&(0x80>>uint(bit&7)) != 0 {
				x[i] |= 1 << uint(j)
			}
			bit++
		}
	}
}
