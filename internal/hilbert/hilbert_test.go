package hilbert

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

// mustNew is New for known-good parameters; it panics on error.
func mustNew(dims, order int) *Curve {
	c, err := New(dims, order)
	if err != nil {
		panic(err)
	}
	return c
}

// keyToUint converts a short key (≤ 8 bytes) to an integer for readability.
func keyToUint(key []byte) uint64 {
	var buf [8]byte
	copy(buf[8-len(key):], key)
	return binary.BigEndian.Uint64(buf[:])
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 4); err == nil {
		t.Error("dims=0 must fail")
	}
	if _, err := New(2, 0); err == nil {
		t.Error("order=0 must fail")
	}
	if _, err := New(2, 33); err == nil {
		t.Error("order=33 must fail")
	}
	if _, err := New(16, 8); err != nil {
		t.Errorf("valid params failed: %v", err)
	}
}

func TestKeyLen(t *testing.T) {
	cases := []struct{ dims, order, want int }{
		{16, 8, 16},  // SIFT per Table 3
		{16, 32, 64}, // Yorck
		{64, 32, 256},
		{24, 32, 96},
		{37, 16, 74},
		{10, 32, 40},
		{3, 3, 2}, // 9 bits -> 2 bytes
	}
	for _, c := range cases {
		h := mustNew(c.dims, c.order)
		if h.KeyLen() != c.want {
			t.Errorf("KeyLen(%d,%d) = %d, want %d", c.dims, c.order, h.KeyLen(), c.want)
		}
	}
}

// Exhaustive check for small curves: encoding is a bijection onto
// [0, 2^(dims*order)) and consecutive keys are grid neighbours differing
// by exactly 1 in exactly one dimension (the Hilbert unit-step property
// that underlies the locality argument of §3.1).
func TestExhaustiveBijectionAndUnitStep(t *testing.T) {
	cases := []struct{ dims, order int }{
		{2, 1}, {2, 2}, {2, 3}, {2, 4}, {3, 2}, {3, 3}, {4, 2}, {5, 2},
	}
	for _, c := range cases {
		h := mustNew(c.dims, c.order)
		total := uint64(1) << uint(c.dims*c.order)
		side := uint32(1) << uint(c.order)

		// Enumerate all grid cells, encode, record cell per key.
		cells := make([][]uint32, total)
		coords := make([]uint32, c.dims)
		var walk func(d int)
		var count uint64
		walk = func(d int) {
			if d == c.dims {
				cp := make([]uint32, c.dims)
				copy(cp, coords)
				key := h.Encode(nil, cp)
				k := keyToUint(key)
				if k >= total {
					t.Fatalf("(%d,%d) key %d out of range", c.dims, c.order, k)
				}
				if cells[k] != nil {
					t.Fatalf("(%d,%d) duplicate key %d", c.dims, c.order, k)
				}
				cells[k] = cp
				// Round trip through Decode.
				back := make([]uint32, c.dims)
				h.Decode(key, back)
				for i := range back {
					if back[i] != cp[i] {
						t.Fatalf("(%d,%d) decode(%d) = %v, want %v", c.dims, c.order, k, back, cp)
					}
				}
				count++
				return
			}
			for v := uint32(0); v < side; v++ {
				coords[d] = v
				walk(d + 1)
			}
		}
		walk(0)
		if count != total {
			t.Fatalf("(%d,%d) visited %d cells, want %d", c.dims, c.order, count, total)
		}
		// Unit-step property.
		for k := uint64(1); k < total; k++ {
			a, b := cells[k-1], cells[k]
			diffs, manhattan := 0, uint32(0)
			for i := range a {
				if a[i] != b[i] {
					diffs++
					d := a[i] - b[i]
					if b[i] > a[i] {
						d = b[i] - a[i]
					}
					manhattan += d
				}
			}
			if diffs != 1 || manhattan != 1 {
				t.Fatalf("(%d,%d) step %d->%d not unit: %v -> %v", c.dims, c.order, k-1, k, a, b)
			}
		}
	}
}

// Property: Decode inverts Encode for random high-dimensional inputs at
// paper-scale parameters (η up to 64, ω up to 32).
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := rng.Intn(64) + 1
		order := rng.Intn(32) + 1
		h := mustNew(dims, order)
		coords := make([]uint32, dims)
		maxv := maxCoord(order)
		for i := range coords {
			coords[i] = rng.Uint32() & maxv
		}
		key := h.Encode(nil, coords)
		if len(key) != h.KeyLen() {
			return false
		}
		back := make([]uint32, dims)
		h.Decode(key, back)
		for i := range back {
			if back[i] != coords[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The first cell of the curve is always the origin and the curve starts
// at key 0.
func TestOriginIsKeyZero(t *testing.T) {
	for _, c := range []struct{ dims, order int }{{2, 4}, {8, 8}, {16, 8}} {
		h := mustNew(c.dims, c.order)
		key := h.Encode(nil, make([]uint32, c.dims))
		for _, b := range key {
			if b != 0 {
				t.Fatalf("(%d,%d) origin key = %x, want all-zero", c.dims, c.order, key)
			}
		}
	}
}

func TestEncodePanics(t *testing.T) {
	h := mustNew(2, 4)
	mustPanic(t, "coord count", func() { h.Encode(nil, []uint32{1}) })
	mustPanic(t, "coord range", func() { h.Encode(nil, []uint32{16, 0}) })
	mustPanic(t, "decode key len", func() { h.Decode([]byte{0, 0}, make([]uint32, 2)) })
	mustPanic(t, "decode coord count", func() { h.Decode([]byte{0}, make([]uint32, 1)) })
	prefix, _ := NewPrefix(HilbertCurve, 16, 8, 8)
	mustPanic(t, "decode a prefix key", func() { prefix.Decode(make([]byte, 8), make([]uint32, 16)) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestEncodeAppends(t *testing.T) {
	h := mustNew(2, 2)
	prefix := []byte{0xAA}
	key := h.Encode(prefix, []uint32{1, 1})
	if len(key) != 1+h.KeyLen() || key[0] != 0xAA {
		t.Fatalf("Encode must append, got %x", key)
	}
}

// A query encodes one key per tree at η = 16, ω = 8: into a slice with
// room for the key, Encode allocates nothing.
func TestEncodeDoesNotAllocate(t *testing.T) {
	h := mustNew(16, 8)
	coords := make([]uint32, 16)
	for i := range coords {
		coords[i] = uint32(i * 13 % 256)
	}
	dst := make([]byte, 0, h.KeyLen())
	if allocs := testing.AllocsPerRun(100, func() { dst = h.Encode(dst[:0], coords) }); allocs != 0 {
		t.Fatalf("Encode at η=16, ω=8 allocates %v times per call, want 0", allocs)
	}
}

// Locality smoke test: points close in space get keys that are closer on
// average than points far apart. This is statistical, so use a fixed seed
// and a generous margin.
func TestLocalityStatistical(t *testing.T) {
	h := mustNew(4, 8)
	rng := rand.New(rand.NewSource(42))
	var nearSum, farSum float64
	n := 300
	for i := 0; i < n; i++ {
		p := make([]uint32, 4)
		for d := range p {
			p[d] = uint32(rng.Intn(250)) + 2
		}
		near := make([]uint32, 4)
		copy(near, p)
		near[rng.Intn(4)]++ // grid neighbour
		far := make([]uint32, 4)
		for d := range far {
			far[d] = uint32(rng.Intn(256))
		}
		kp := h.Encode(nil, p)
		kn := h.Encode(nil, near)
		kf := h.Encode(nil, far)
		d1 := make([]byte, len(kp))
		KeyDelta(d1, kp, kn)
		nearSum += float64(keyToUint(d1))
		KeyDelta(d1, kp, kf)
		farSum += float64(keyToUint(d1))
	}
	if nearSum >= farSum {
		t.Errorf("near key distance sum %g >= far sum %g; locality broken", nearSum, farSum)
	}
}
