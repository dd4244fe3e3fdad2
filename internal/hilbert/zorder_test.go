package hilbert

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// newZOrder is the full-width Z-order curve.
func newZOrder(dims, order int) (*Curve, error) {
	return NewPrefix(ZOrderCurve, dims, order, (dims*order+7)/8)
}

func TestZOrderValidation(t *testing.T) {
	if _, err := newZOrder(0, 4); err == nil {
		t.Error("dims=0 must fail")
	}
	if _, err := newZOrder(2, 0); err == nil {
		t.Error("order=0 must fail")
	}
	if _, err := newZOrder(2, 33); err == nil {
		t.Error("order=33 must fail")
	}
	for _, w := range []int{0, 3} {
		if _, err := NewPrefix(ZOrderCurve, 2, 8, w); err == nil {
			t.Errorf("key width %d of a 2-byte curve must fail", w)
		}
	}
}

// Z-order of 2D (x,y) with order 2: key is bit-interleaved with x first.
func TestZOrderKnown2D(t *testing.T) {
	z, err := newZOrder(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// coords (x=3, y=0) -> bits x=11, y=00 -> interleave x1 y1 x0 y0 = 1010 = 10
	key := z.Encode(nil, []uint32{3, 0})
	if got := keyToUint(key); got != 10 {
		t.Errorf("z(3,0) = %d, want 10", got)
	}
	// coords (1,1) -> x=01 y=01 -> 0011 = 3
	key = z.Encode(nil, []uint32{1, 1})
	if got := keyToUint(key); got != 3 {
		t.Errorf("z(1,1) = %d, want 3", got)
	}
}

func TestQuickZOrderRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := rng.Intn(32) + 1
		order := rng.Intn(32) + 1
		z, err := newZOrder(dims, order)
		if err != nil {
			return false
		}
		coords := make([]uint32, dims)
		maxv := maxCoord(order)
		for i := range coords {
			coords[i] = rng.Uint32() & maxv
		}
		key := z.Encode(nil, coords)
		back := make([]uint32, dims)
		z.Decode(key, back)
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
