package hilbert

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzKeyPrefix holds a curve of key width w to the full-width curve's
// first w bytes, for both curves: the prefix encoder transforms only the
// top planes those bytes need, and packs them behind the full key's
// front padding. Dims run to 70, past Encode's 64-lane stack scratch.
func FuzzKeyPrefix(f *testing.F) {
	for _, g := range []struct{ dims, order, w uint8 }{
		{16, 8, 8}, {16, 16, 8}, {16, 32, 8}, {37, 16, 8}, {10, 32, 8},
		{7, 9, 8}, {3, 5, 2}, {4, 8, 4}, {70, 32, 8}, {1, 1, 1}, {64, 1, 5},
	} {
		f.Add(g.dims, g.order, g.w, false, []byte{0xA5, 0x5A, 0xFF, 0x00, 0x13, 0x37})
		f.Add(g.dims, g.order, g.w, true, []byte{0xFF})
	}
	f.Fuzz(func(t *testing.T, dims, order, w uint8, zorder bool, raw []byte) {
		d, o := 1+int(dims)%70, 1+int(order)%32
		kind := HilbertCurve
		if zorder {
			kind = ZOrderCurve
		}
		full, err := NewPrefix(kind, d, o, (d*o+7)/8)
		if err != nil {
			t.Fatal(err)
		}
		kl := min(1+int(w)%8, full.KeyLen())
		prefix, err := NewPrefix(kind, d, o, kl)
		if err != nil {
			t.Fatal(err)
		}
		coords := make([]uint32, d)
		if len(raw) > 0 {
			for i := range coords {
				var b [4]byte
				for j := range b {
					b[j] = raw[(4*i+j)%len(raw)] ^ byte(i)
				}
				coords[i] = binary.LittleEndian.Uint32(b[:]) & maxCoord(o)
			}
		}
		want := full.Encode(nil, coords)[:kl]
		if got := prefix.Encode(nil, coords); !bytes.Equal(got, want) {
			t.Fatalf("kind %d, %d dims, order %d, %d-byte key of %v: %x, the full key starts %x", kind, d, o, kl, coords, got, want)
		}
		all := make([]byte, kl)
		prefix.EncodeAll(all, coords, d)
		if !bytes.Equal(all, want) {
			t.Fatalf("kind %d, %d dims, order %d: EncodeAll's %d-byte key %x, the full key starts %x", kind, d, o, kl, all, want)
		}
	})
}
