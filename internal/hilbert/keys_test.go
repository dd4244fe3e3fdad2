package hilbert

import (
	"bytes"
	"math/big"
	"testing"
)

// closerKeyByDelta is the CloserKey the word-wide one replaced, kept as
// a second reference: materialise both |q-x| with KeyDelta, compare them.
func closerKeyByDelta(q, a, b []byte) int {
	da, db := make([]byte, len(q)), make([]byte, len(q))
	return bytes.Compare(KeyDelta(da, q, a), KeyDelta(db, q, b))
}

// closerKeyBig is the oracle: the same question in math/big.
func closerKeyBig(q, a, b []byte) int {
	bq, ba, bb := new(big.Int).SetBytes(q), new(big.Int).SetBytes(a), new(big.Int).SetBytes(b)
	da := ba.Sub(bq, ba).Abs(ba)
	db := bb.Sub(bq, bb).Abs(bb)
	return da.Cmp(db)
}

func fill(n int, c byte) []byte { return bytes.Repeat([]byte{c}, n) }

// borrowRipple returns q = 10…0, a = q-1 = 0F…F and b = q+1: the
// subtraction q-a borrows through every limb and both deltas are 1.
func borrowRipple(n int) (q, a, b []byte) {
	q, a, b = fill(n, 0x00), fill(n, 0xFF), fill(n, 0x00)
	q[0], a[0], b[0], b[n-1] = 0x10, 0x0F, 0x10, 0x01
	return q, a, b
}

func FuzzCloserKey(f *testing.F) {
	for _, n := range []int{1, 7, 8, 9, 16, 17, 65} {
		f.Add(fill(n, 0x5A), fill(n, 0x5A), fill(n, 0x5A)) // equal keys
		f.Add(fill(n, 0x00), fill(n, 0x00), fill(n, 0xFF))
		f.Add(fill(n, 0xFF), fill(n, 0x00), fill(n, 0xFF))
		f.Add(fill(n, 0x80), fill(n, 0x00), fill(n, 0xFF)) // a below, b above
		f.Add(fill(n, 0x80), fill(n, 0xFF), fill(n, 0x00)) // a above, b below
		q, a, b := borrowRipple(n)
		f.Add(q, a, b)
		a[n-1]-- // a one further away than b
		f.Add(q, a, b)
		f.Add(a, q, b) // both above the query
	}
	f.Fuzz(func(t *testing.T, q, a, b []byte) {
		n := min(len(q), len(a), len(b))
		if n == 0 {
			return
		}
		q, a, b = q[:n], a[:n], b[:n]
		want := closerKeyBig(q, a, b)
		if got := CloserKey(q, a, b); got != want {
			t.Fatalf("CloserKey(%x, %x, %x) = %d, math/big says %d", q, a, b, got, want)
		}
		if got := closerKeyByDelta(q, a, b); got != want {
			t.Fatalf("KeyDelta reference (%x, %x, %x) = %d, math/big says %d", q, a, b, got, want)
		}
		if got := CloserKey(q, b, a); got != -want {
			t.Fatalf("CloserKey(%x, %x, %x) = %d, want the mirror %d", q, b, a, got, -want)
		}
	})
}

// The walk runs it per entry at any key width: never on the heap.
func TestCloserKeyDoesNotAllocate(t *testing.T) {
	for _, n := range []int{8, 16, 65} {
		q, a, b := borrowRipple(n)
		if allocs := testing.AllocsPerRun(100, func() { CloserKey(q, a, b) }); allocs != 0 {
			t.Errorf("CloserKey at %d bytes allocates %v times per call, want 0", n, allocs)
		}
	}
}

var closerSink int

// The direction test at the 8-byte key prefix an RDB-tree stores (every
// benchmark workload's trees), left key below the query, right key
// above — the walk's case.
func BenchmarkCloserKey8(b *testing.B) { benchCloserKey(b, 8) }

// The same at the full 16-byte key (η=16, ω=8) that hdbench's
// multicurves baseline walks.
func BenchmarkCloserKey16(b *testing.B) { benchCloserKey(b, 16) }

func benchCloserKey(b *testing.B, n int) {
	q, l, r := borrowRipple(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		closerSink += CloserKey(q, l, r)
	}
}
