package hilbert

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQuantizerBasics(t *testing.T) {
	q := NewQuantizer([]float32{0, 0}, []float32{1, 1}, 8)
	c := q.Coords(nil, []float32{0, 1})
	if c[0] != 0 || c[1] != 255 {
		t.Errorf("bounds -> %v, want [0 255]", c)
	}
	c = q.Coords(c, []float32{0.5, 0.25})
	if c[0] != 128 || c[1] != 64 {
		t.Errorf("midpoints -> %v, want [128 64]", c)
	}
}

func TestQuantizerClamps(t *testing.T) {
	q := NewQuantizer([]float32{0, 0}, []float32{255, 255}, 8)
	c := q.Coords(nil, []float32{-10, 300})
	if c[0] != 0 || c[1] != 255 {
		t.Errorf("clamp -> %v", c)
	}
}

func TestQuantizerDegenerateDim(t *testing.T) {
	q := NewQuantizer([]float32{0, 5}, []float32{1, 5}, 4)
	c := q.Coords(nil, []float32{0.5, 5})
	if c[1] != 0 {
		t.Errorf("degenerate dim -> %v, want cell 0", c[1])
	}
}

func TestQuantizerMismatchPanics(t *testing.T) {
	mustPanic(t, "lo/hi", func() { NewQuantizer([]float32{0}, []float32{1, 2}, 4) })
	q := NewQuantizer([]float32{0, 0}, []float32{1, 1}, 4)
	mustPanic(t, "vec len", func() { q.Coords(nil, []float32{1}) })
}

// Property: quantisation is monotone per dimension, so closer values can
// never be mapped to farther-apart cells in that dimension.
func TestQuickQuantizerMonotone(t *testing.T) {
	q := NewQuantizer([]float32{-100}, []float32{100}, 16)
	f := func(a, b float64) bool {
		av := float32(a - float64(int64(a/1e3))*1e3) // keep finite-ish
		bv := float32(b - float64(int64(b/1e3))*1e3)
		ca := q.Coords(nil, []float32{av})
		cb := q.Coords(nil, []float32{bv})
		if av <= bv {
			return ca[0] <= cb[0]
		}
		return ca[0] >= cb[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyDelta(t *testing.T) {
	a := []byte{0x01, 0x00}
	b := []byte{0x00, 0xFF}
	d := make([]byte, 2)
	KeyDelta(d, a, b)
	if d[0] != 0 || d[1] != 1 {
		t.Errorf("delta = %x, want 0001", d)
	}
	// symmetric
	KeyDelta(d, b, a)
	if d[0] != 0 || d[1] != 1 {
		t.Errorf("delta sym = %x, want 0001", d)
	}
	KeyDelta(d, a, a)
	if !bytes.Equal(d, []byte{0, 0}) {
		t.Errorf("self delta = %x", d)
	}
}

func TestCloserKey(t *testing.T) {
	q := []byte{0x10}
	if CloserKey(q, []byte{0x11}, []byte{0x20}) != -1 {
		t.Error("0x11 should be closer to 0x10 than 0x20")
	}
	if CloserKey(q, []byte{0x30}, []byte{0x0F}) != 1 {
		t.Error("0x0F should be closer to 0x10 than 0x30")
	}
	if CloserKey(q, []byte{0x0E}, []byte{0x12}) != 0 {
		t.Error("equidistant keys should tie")
	}
	// It runs once per entry of the α-nearest walk.
	a, b := []byte{0x0E}, []byte{0x12}
	if n := testing.AllocsPerRun(100, func() { CloserKey(q, a, b) }); n != 0 {
		t.Errorf("CloserKey allocates %v times per call, want 0", n)
	}
}

// Property: KeyDelta agrees with integer arithmetic for 8-byte keys.
func TestQuickKeyDeltaInteger(t *testing.T) {
	f := func(x, y uint64) bool {
		var a, b, d [8]byte
		for i := 0; i < 8; i++ {
			a[7-i] = byte(x >> uint(8*i))
			b[7-i] = byte(y >> uint(8*i))
		}
		KeyDelta(d[:], a[:], b[:])
		want := x - y
		if y > x {
			want = y - x
		}
		return keyToUint(d[:]) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode16x8(b *testing.B) {
	h := mustNew(16, 8)
	rng := rand.New(rand.NewSource(1))
	coords := make([]uint32, 16)
	for i := range coords {
		coords[i] = uint32(rng.Intn(256))
	}
	dst := make([]byte, 0, h.KeyLen())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = h.Encode(dst[:0], coords)
	}
}

func BenchmarkEncode64x32(b *testing.B) {
	h := mustNew(64, 32)
	rng := rand.New(rand.NewSource(1))
	coords := make([]uint32, 64)
	for i := range coords {
		coords[i] = rng.Uint32()
	}
	dst := make([]byte, 0, h.KeyLen())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = h.Encode(dst[:0], coords)
	}
}
