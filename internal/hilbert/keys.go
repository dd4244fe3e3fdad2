package hilbert

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math/bits"
)

// Key helpers. Hilbert keys are unsigned big-endian integers serialised as
// fixed-width byte strings; the α-candidate retrieval (§4.1) walks leaf
// entries outward from the query position and repeatedly needs to know
// which of two keys lies numerically closer to the query key.

// KeyDelta writes |a - b| into dst (all three must have equal length,
// dst may alias neither input) treating the keys as big-endian unsigned
// integers, and returns dst.
func KeyDelta(dst, a, b []byte) []byte {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("hilbert: key length mismatch")
	}
	hi, lo := a, b
	if bytes.Compare(a, b) < 0 {
		hi, lo = b, a
	}
	borrow := 0
	for i := len(a) - 1; i >= 0; i-- {
		d := int(hi[i]) - int(lo[i]) - borrow
		if d < 0 {
			d += 256
			borrow = 1
		} else {
			borrow = 0
		}
		dst[i] = byte(d)
	}
	return dst
}

// CloserKey reports which of a or b is numerically closer to q:
// -1 if a is strictly closer, +1 if b is strictly closer, 0 on a tie.
// All keys must have the same length. It is the α-nearest walk's
// direction test, so it works a uint64 limb at a time and keeps nothing
// on the heap at any width. The 8-byte keys an RDB-tree stores (a
// key's first machine word) are one limb and take a closed form
// (BenchmarkCloserKey8, about a third of the limb loop's time); every
// other width, the multicurves baseline's full 16-byte keys included,
// takes the limb loop.
func CloserKey(q, a, b []byte) int {
	if len(a) != len(q) || len(b) != len(q) {
		panic("hilbert: key length mismatch")
	}
	if len(q) == 8 {
		qv := binary.BigEndian.Uint64(q)
		return cmp.Compare(absDiff64(qv, binary.BigEndian.Uint64(a)), absDiff64(qv, binary.BigEndian.Uint64(b)))
	}
	// Order each pair so both deltas are hi - lo >= 0, then take the sign
	// of (ah-al) - (bh-bl) in one pass, least significant limb first,
	// carrying three borrows and materialising neither delta.
	ah, al := q, a
	if bytes.Compare(q, a) < 0 {
		ah, al = a, q
	}
	bh, bl := q, b
	if bytes.Compare(q, b) < 0 {
		bh, bl = b, q
	}
	var borrowA, borrowB, borrow, nonzero uint64
	for end := len(q); end > 0; end -= 8 {
		var da, db, d uint64
		da, borrowA = bits.Sub64(limb(ah, end), limb(al, end), borrowA)
		db, borrowB = bits.Sub64(limb(bh, end), limb(bl, end), borrowB)
		d, borrow = bits.Sub64(da, db, borrow)
		nonzero |= d
	}
	switch {
	case borrow != 0: // |q-a| - |q-b| went negative
		return -1
	case nonzero != 0:
		return 1
	}
	return 0
}

// absDiff64 is |x - y|.
func absDiff64(x, y uint64) uint64 {
	if x < y {
		return y - x
	}
	return x - y
}

// limb loads the (up to) eight bytes of k that end at offset end as a
// big-endian integer; the key's most significant limb may be short.
func limb(k []byte, end int) uint64 {
	if end >= 8 {
		return binary.BigEndian.Uint64(k[end-8 : end])
	}
	var v uint64
	for _, c := range k[:end] {
		v = v<<8 | uint64(c)
	}
	return v
}
