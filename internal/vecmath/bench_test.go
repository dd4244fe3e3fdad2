package vecmath

import (
	"math/rand"
	"testing"
)

// Kernel micro-benchmarks at the paper's dimensionalities (SIFT ν=128,
// Audio ν=192, and the 4-at-a-time tail case ν=100 for Glove).
func benchVecs(n int) (a, b []float32) {
	rng := rand.New(rand.NewSource(1))
	a = make([]float32, n)
	b = make([]float32, n)
	for i := range a {
		a[i] = rng.Float32()
		b[i] = rng.Float32()
	}
	return a, b
}

func benchmarkDistSq(b *testing.B, n int) {
	x, y := benchVecs(n)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += DistSq(x, y)
	}
	_ = sink
}

func BenchmarkDistSq100(b *testing.B) { benchmarkDistSq(b, 100) }
func BenchmarkDistSq128(b *testing.B) { benchmarkDistSq(b, 128) }
func BenchmarkDistSq192(b *testing.B) { benchmarkDistSq(b, 192) }
func BenchmarkDistSq960(b *testing.B) { benchmarkDistSq(b, 960) }

// Tight bound: the common refinement case once the top-k heap is warm —
// most candidates abandon within the first stride or two.
func BenchmarkDistSqBoundTight(b *testing.B) {
	x, y := benchVecs(128)
	bound := DistSq(x, y) / 16
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		d, _ := DistSqBound(x, y, bound)
		sink += d
	}
	_ = sink
}

// Loose bound: the worst case — the full distance is always computed,
// measuring the overhead of the periodic bound checks over plain DistSq.
func BenchmarkDistSqBoundLoose(b *testing.B) {
	x, y := benchVecs(128)
	bound := DistSq(x, y) * 2
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		d, _ := DistSqBound(x, y, bound)
		sink += d
	}
	_ = sink
}

// distSqUnrolled4 is a four-accumulator reference kept benchmark-only:
// measured against DistSq it shows why the shipped kernel is scalar —
// the float32→float64 conversions bound the loop on the FP ports, so
// the extra accumulators buy nothing, while the bigger body blows the
// inlining budget (cost 158 vs the 80 limit) and costs ~30% at real
// call sites. If a future Go version vectorises one of these shapes,
// this benchmark is the tripwire.
func distSqUnrolled4(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("vecmath: dimension mismatch")
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := float64(a[i]) - float64(b[i])
		d1 := float64(a[i+1]) - float64(b[i+1])
		d2 := float64(a[i+2]) - float64(b[i+2])
		d3 := float64(a[i+3]) - float64(b[i+3])
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := float64(a[i]) - float64(b[i])
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}

func BenchmarkDistSqUnrolledRef128(b *testing.B) {
	x, y := benchVecs(128)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += distSqUnrolled4(x, y)
	}
	_ = sink
}
