package hilbert

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestEncodeAllMatchesEncode pins the batch encoder to the per-point
// one, bit for bit, across both curves, several geometries, and a
// stride wider than the dimensionality.
func TestEncodeAllMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct{ dims, order, stride int }{
		{2, 4, 2},
		{16, 8, 16},
		{16, 8, 20}, // stride > dims: trailing lanes must be ignored
		{8, 16, 8},
		{3, 5, 3}, // key not a whole number of bytes
	}
	curves := func(dims, order int) map[string]*Curve {
		return map[string]*Curve{
			"hilbert": mustNew(dims, order),
			"zorder": func() *Curve {
				z, err := newZOrder(dims, order)
				if err != nil {
					t.Fatal(err)
				}
				return z
			}(),
			"hilbert one byte": func() *Curve {
				h, err := NewPrefix(HilbertCurve, dims, order, 1)
				if err != nil {
					t.Fatal(err)
				}
				return h
			}(),
		}
	}
	for _, c := range cases {
		for name, cv := range curves(c.dims, c.order) {
			const n = 200
			maxv := maxCoord(c.order)
			coords := make([]uint32, n*c.stride)
			for i := range coords {
				coords[i] = rng.Uint32() % (maxv + 1)
			}
			// Dirty destination: EncodeAll must fully overwrite.
			dst := make([]byte, n*cv.KeyLen())
			for i := range dst {
				dst[i] = 0xAA
			}
			cv.EncodeAll(dst, coords, c.stride)
			for i := 0; i < n; i++ {
				want := cv.Encode(nil, coords[i*c.stride:i*c.stride+c.dims])
				got := dst[i*cv.KeyLen() : (i+1)*cv.KeyLen()]
				if !bytes.Equal(got, want) {
					t.Fatalf("%s dims=%d order=%d stride=%d point %d: EncodeAll = %x, Encode = %x",
						name, c.dims, c.order, c.stride, i, got, want)
				}
			}
		}
	}
}

func TestEncodeAllPanics(t *testing.T) {
	h := mustNew(2, 4)
	mustPanic(t, "short dst", func() { h.EncodeAll(make([]byte, 0), make([]uint32, 2), 2) })
	mustPanic(t, "stride < dims", func() { h.EncodeAll(make([]byte, 8), make([]uint32, 2), 1) })
	mustPanic(t, "coord range", func() { h.EncodeAll(make([]byte, 1), []uint32{16, 0}, 2) })
	z, _ := newZOrder(2, 4)
	mustPanic(t, "zorder coord range", func() { z.EncodeAll(make([]byte, 1), []uint32{16, 0}, 2) })
	mustPanic(t, "zorder stride", func() { z.EncodeAll(make([]byte, 8), make([]uint32, 2), 1) })
}

func BenchmarkEncodeAll128(b *testing.B) {
	h := mustNew(16, 8)
	const n = 1000
	coords := make([]uint32, n*16)
	rng := rand.New(rand.NewSource(8))
	for i := range coords {
		coords[i] = rng.Uint32() % 256
	}
	dst := make([]byte, n*h.KeyLen())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.EncodeAll(dst, coords, 16)
	}
}

func BenchmarkEncodePerPoint128(b *testing.B) {
	h := mustNew(16, 8)
	const n = 1000
	coords := make([]uint32, n*16)
	rng := rand.New(rand.NewSource(8))
	for i := range coords {
		coords[i] = rng.Uint32() % 256
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := 0; p < n; p++ {
			_ = h.Encode(nil, coords[p*16:(p+1)*16])
		}
	}
}
