package hilbert

import "fmt"

// ZOrder is a Curve following the Z-order (Morton) space-filling curve:
// a plain bit interleaving with no rotation. It shares the Hilbert key
// format so the two curves are drop-in interchangeable in RDB-trees;
// the ablation benchmarks use it to quantify the paper's choice of the
// Hilbert curve (§2.2.3, [37]).
type ZOrder struct {
	dims   int
	order  int
	keyLen int
}

// NewZOrder returns a Z-order curve with the given dimensionality and order.
func NewZOrder(dims, order int) (*ZOrder, error) {
	if dims < 1 {
		return nil, fmt.Errorf("zorder: dims must be >= 1, got %d", dims)
	}
	if order < 1 || order > 32 {
		return nil, fmt.Errorf("zorder: order must be in [1,32], got %d", order)
	}
	return &ZOrder{dims: dims, order: order, keyLen: (dims*order + 7) / 8}, nil
}

// KeyLen returns the number of bytes in a key.
func (z *ZOrder) KeyLen() int { return z.keyLen }

// Encode appends the Morton key of coords to dst and returns it.
func (z *ZOrder) Encode(dst []byte, coords []uint32) []byte {
	if len(coords) != z.dims {
		panic("zorder: coordinate count mismatch")
	}
	maxv := maxCoord(z.order)
	for _, c := range coords {
		if c > maxv {
			panic("zorder: coordinate exceeds order")
		}
	}
	return packTransposed(dst, coords, z.dims, z.order)
}

// EncodeAll encodes len(coords)/stride points into dst, KeyLen() bytes
// each; see Curve.EncodeAll. Morton keys need no transpose, so the
// batch form only hoists validation and the append bookkeeping.
func (z *ZOrder) EncodeAll(dst []byte, coords []uint32, stride int) {
	if stride < z.dims {
		panic("zorder: stride below dimensionality")
	}
	n := len(coords) / stride
	if len(dst) < n*z.keyLen {
		panic("zorder: destination too short")
	}
	maxv := maxCoord(z.order)
	for i := 0; i < n; i++ {
		row := coords[i*stride : i*stride+z.dims]
		for _, c := range row {
			if c > maxv {
				panic("zorder: coordinate exceeds order")
			}
		}
		packTransposedInto(dst[i*z.keyLen:(i+1)*z.keyLen], row, z.dims, z.order)
	}
}

// Decode writes the grid coordinates of key into coords.
func (z *ZOrder) Decode(key []byte, coords []uint32) {
	if len(coords) != z.dims {
		panic("zorder: coordinate count mismatch")
	}
	if len(key) != z.keyLen {
		panic("zorder: key length mismatch")
	}
	unpackTransposed(key, coords, z.dims, z.order)
}
