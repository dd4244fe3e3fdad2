package hilbert

import "bytes"

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
// per-entry direction test, so the deltas live on the stack: keys are
// ceil(η·ω/8) bytes, which fits the arrays for every realistic geometry
// (η·ω ≤ 512 bits); only pathological configs pay the heap fallback.
func CloserKey(q, a, b []byte) int {
	var sa, sb [64]byte
	da, db := sa[:], sb[:]
	if len(q) > len(sa) {
		da, db = make([]byte, len(q)), make([]byte, len(q))
	}
	return bytes.Compare(KeyDelta(da[:len(q)], q, a), KeyDelta(db[:len(q)], q, b))
}
