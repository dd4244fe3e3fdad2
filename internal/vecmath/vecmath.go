// Package vecmath provides the low-level vector arithmetic used throughout
// the HD-Index reproduction: Euclidean distances over float32 vectors,
// order-preserving encodings of floating-point values, and a few small
// helpers shared by the index and the baseline methods.
//
// Vectors are []float32: every dataset in the paper (Table 4) fits in
// single precision, and float32 halves the I/O volume of the disk-resident
// structures, which is the paper's central concern.
package vecmath

import (
	"encoding/binary"
	"math"
)

// Dist returns the Euclidean (L2) distance between a and b.
// It panics if the slices have different lengths, as mixing
// dimensionalities is always a programming error in this codebase.
func Dist(a, b []float32) float64 {
	return math.Sqrt(DistSq(a, b))
}

// DistSq returns the squared Euclidean distance between a and b.
// Squared distances preserve the kNN order and avoid the sqrt in hot loops.
//
// The body must stay within the compiler's inlining budget: every call
// site passes local slices, and inlining (with the bounds checks it
// lets the compiler drop) is worth ~30% here, where multi-accumulator
// unrolling measures as a wash — the float32→float64 conversions
// saturate the FP ports, so there is no latency chain to hide (see
// BenchmarkDistSqUnrolledRef128 for the receipts). The accumulation
// order is a contract with DistSqBound: a bounded computation that runs
// to completion is bit-identical to DistSq.
func DistSq(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("vecmath: dimension mismatch")
	}
	var s float64
	for i, av := range a {
		d := float64(av) - float64(b[i])
		s += d * d
	}
	return s
}

// abandonStride is how many dimensions DistSqBound accumulates between
// bound checks: frequent enough to cut most of a hopeless candidate's
// work, rare enough that the comparison stays off the profile.
const abandonStride = 16

// DistSqBound is the early-abandoning DistSq of the refinement hot
// path: it accumulates the squared distance but gives up as soon as the
// partial sum strictly exceeds bound (the current k-th best distance),
// since squared terms only grow the total.
//
// It returns (d, true) when the distance was fully computed — then d is
// bit-identical to DistSq(a, b), because the accumulation order is the
// same — or (partial, false) when accumulation was abandoned. The
// partial sum is a prefix of DistSq's own sum, and adding non-negative
// terms is monotone even in floating point, so partial > bound implies
// the true distance also strictly exceeds bound: the candidate can
// never enter a top-k list whose worst entry sits at bound, which is
// what keeps the optimized refinement path's results identical to the
// unbounded one.
func DistSqBound(a, b []float32, bound float64) (float64, bool) {
	if len(a) != len(b) {
		panic("vecmath: dimension mismatch")
	}
	var s float64
	i := 0
	for ; i+abandonStride <= len(a); i += abandonStride {
		for j := i; j < i+abandonStride; j++ {
			d := float64(a[j]) - float64(b[j])
			s += d * d
		}
		if s > bound {
			return s, false
		}
	}
	for ; i < len(a); i++ {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s, true
}

// DistSqBoundBytes is DistSqBound against a vector stored one byte per
// component (vecstore's byte records). Widening a byte to float64 gives
// exactly float64(float32(b[j])) and the accumulation order is
// DistSqBound's, so the result — completed or abandoned, partial sum
// included — is bit-identical to DistSqBound over b widened to float32.
func DistSqBoundBytes(a []float32, b []byte, bound float64) (float64, bool) {
	if len(a) != len(b) {
		panic("vecmath: dimension mismatch")
	}
	var s float64
	i := 0
	for ; i+abandonStride <= len(a); i += abandonStride {
		for j := i; j < i+abandonStride; j++ {
			d := float64(a[j]) - float64(b[j])
			s += d * d
		}
		if s > bound {
			return s, false
		}
	}
	for ; i < len(a); i++ {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s, true
}

// Copy returns a fresh copy of v.
func Copy(v []float32) []float32 {
	c := make([]float32, len(v))
	copy(c, v)
	return c
}

// SortableFloat64 maps a float64 to a uint64 whose unsigned order matches
// the numeric order of the inputs (including negatives, zeros and infs).
// It is used to build B+-tree keys from distance values (iDistance, QALSH).
func SortableFloat64(f float64) uint64 {
	u := math.Float64bits(f)
	if u&(1<<63) != 0 {
		return ^u // negative: flip all bits
	}
	return u | (1 << 63) // positive: flip sign bit
}

// PutSortableFloat64 writes the sortable encoding of f into b (8 bytes,
// big-endian) so that bytes.Compare agrees with numeric order.
func PutSortableFloat64(b []byte, f float64) {
	binary.BigEndian.PutUint64(b, SortableFloat64(f))
}

// MinMax returns the per-dimension minimum and maximum over vecs.
// Both results have length dim; they are nil if vecs is empty.
func MinMax(vecs [][]float32, dim int) (lo, hi []float32) {
	if len(vecs) == 0 {
		return nil, nil
	}
	lo = make([]float32, dim)
	hi = make([]float32, dim)
	copy(lo, vecs[0])
	copy(hi, vecs[0])
	for _, v := range vecs[1:] {
		for d := 0; d < dim; d++ {
			if v[d] < lo[d] {
				lo[d] = v[d]
			}
			if v[d] > hi[d] {
				hi[d] = v[d]
			}
		}
	}
	return lo, hi
}
