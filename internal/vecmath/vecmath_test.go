package vecmath

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	a := []float32{0, 0, 0}
	b := []float32{1, 2, 2}
	if got := Dist(a, b); math.Abs(got-3) > 1e-9 {
		t.Errorf("Dist = %v, want 3", got)
	}
	if got := DistSq(a, b); math.Abs(got-9) > 1e-9 {
		t.Errorf("DistSq = %v, want 9", got)
	}
}

func TestDistMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	DistSq([]float32{1}, []float32{1, 2})
}

func TestCopy(t *testing.T) {
	a := []float32{1, 2}
	c := Copy(a)
	c[0] = 99
	if a[0] != 1 {
		t.Error("Copy aliases input")
	}
}

// Property: the sortable float encoding preserves order, for all finite
// pairs including negatives and zeros.
func TestQuickSortableFloatOrder(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ea, eb := SortableFloat64(a), SortableFloat64(b)
		switch {
		case a < b:
			return ea < eb
		case a > b:
			return ea > eb
		default:
			return ea == eb || (a == 0 && b == 0) // -0 vs +0 may differ
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// bytes.Compare over PutSortableFloat64 must agree with numeric order.
func TestSortableBytesOrder(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -3.5, -1, -1e-9, 0, 1e-9, 2, 7.25, 1e300, math.Inf(1)}
	prev := make([]byte, 8)
	cur := make([]byte, 8)
	PutSortableFloat64(prev, vals[0])
	for _, v := range vals[1:] {
		PutSortableFloat64(cur, v)
		if bytes.Compare(prev, cur) >= 0 {
			t.Fatalf("byte order broken at %v", v)
		}
		copy(prev, cur)
	}
}

func TestMinMax(t *testing.T) {
	vecs := [][]float32{{1, 5}, {3, 2}, {-1, 4}}
	lo, hi := MinMax(vecs, 2)
	if lo[0] != -1 || lo[1] != 2 || hi[0] != 3 || hi[1] != 5 {
		t.Errorf("MinMax = %v %v", lo, hi)
	}
	lo, hi = MinMax(nil, 2)
	if lo != nil || hi != nil {
		t.Error("MinMax of empty input must be nil")
	}
}

// Property: triangle inequality holds for Dist over random vectors —
// a sanity check that the distance is a metric, which the triangular
// filter of §4.2 depends on.
func TestQuickTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := rng.Intn(16) + 1
		mk := func() []float32 {
			v := make([]float32, dim)
			for i := range v {
				v[i] = float32(rng.NormFloat64())
			}
			return v
		}
		a, b, c := mk(), mk(), mk()
		return Dist(a, c) <= Dist(a, b)+Dist(b, c)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// distSqScalar is the plain reference implementation the shipped kernel
// is checked against bit-for-bit.
func distSqScalar(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

func randVecs(rng *rand.Rand, n int) (a, b []float32) {
	a = make([]float32, n)
	b = make([]float32, n)
	for i := range a {
		a[i] = rng.Float32()*20 - 10
		b[i] = rng.Float32()*20 - 10
	}
	return a, b
}

// DistSq must match the straightforward reference bit-for-bit at every
// length: downstream equivalence guarantees (naive vs optimized search
// paths) assume the kernel's accumulation order is the sequential one.
func TestDistSqMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for n := 0; n <= 67; n++ {
		a, b := randVecs(rng, n)
		got, want := DistSq(a, b), distSqScalar(a, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: DistSq = %v, reference = %v", n, got, want)
		}
	}
}

// checkBoundContract asserts DistSqBound's two guarantees against
// DistSq: completed => bit-identical; abandoned => the true distance
// strictly exceeds the bound (so the candidate was truly rejectable).
func checkBoundContract(t *testing.T, a, b []float32, bound float64) {
	t.Helper()
	full := DistSq(a, b)
	got, ok := DistSqBound(a, b, bound)
	if ok {
		if math.Float64bits(got) != math.Float64bits(full) {
			t.Fatalf("completed DistSqBound = %x, DistSq = %x (n=%d bound=%v)",
				math.Float64bits(got), math.Float64bits(full), len(a), bound)
		}
		return
	}
	if !(full > bound) {
		t.Fatalf("abandoned at partial %v but true distance %v <= bound %v (n=%d)",
			got, full, bound, len(a))
	}
	if got > full {
		t.Fatalf("partial %v exceeds true distance %v (n=%d)", got, full, len(a))
	}
}

func TestDistSqBoundContract(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for n := 0; n <= 67; n++ {
		a, b := randVecs(rng, n)
		full := distSqScalar(a, b)
		for _, bound := range []float64{math.Inf(1), full * 2, full, full / 2, full / 100, 0, -1} {
			checkBoundContract(t, a, b, bound)
		}
	}
}

// FuzzDistSqBound hammers the equivalence contract with arbitrary bit
// patterns (including NaN/Inf components) and bounds, and holds
// DistSqBoundBytes to DistSqBound over the byte vector widened to
// float32, bit for bit, partial sum at the abandon point included.
func FuzzDistSqBound(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 64, 1, 2, 3, 4, 5, 6, 7, 8}, 1.5)
	f.Add(bytes.Repeat([]byte{0x40}, 160), 0.0)
	f.Add(bytes.Repeat([]byte{0xff}, 64), math.Inf(1))
	f.Fuzz(func(t *testing.T, raw []byte, bound float64) {
		n := len(raw) / 8 // two float32s per dimension
		a := make([]float32, n)
		b := make([]float32, n)
		for i := 0; i < n; i++ {
			a[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[8*i:]))
			b[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[8*i+4:]))
		}
		bb := make([]byte, n)
		wide := make([]float32, n)
		for i := range bb {
			bb[i] = raw[8*i+4]
			wide[i] = float32(bb[i])
		}
		wd, wok := DistSqBound(a, wide, bound)
		if gd, gok := DistSqBoundBytes(a, bb, bound); gok != wok || math.Float64bits(gd) != math.Float64bits(wd) {
			t.Fatalf("DistSqBoundBytes = (%x, %v), DistSqBound over the widened bytes = (%x, %v)", math.Float64bits(gd), gok, math.Float64bits(wd), wok)
		}
		full := DistSq(a, b)
		got, ok := DistSqBound(a, b, bound)
		if ok {
			if math.Float64bits(got) != math.Float64bits(full) {
				t.Fatalf("completed DistSqBound = %x, DistSq = %x", math.Float64bits(got), math.Float64bits(full))
			}
			return
		}
		// Abandonment requires partial > bound, and squared terms only
		// grow, so the completed distance must also clear the bound — or
		// be NaN, when a NaN component comes after the abandon point.
		if full <= bound {
			t.Fatalf("abandoned (partial %v) but DistSq %v <= bound %v", got, full, bound)
		}
	})
}
