package refsel

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/hd-index/hdindex/internal/data"
	"github.com/hd-index/hdindex/internal/vecmath"
)

func TestEstimateDmax(t *testing.T) {
	// Points on a line: diameter is the span.
	vecs := [][]float32{{0}, {1}, {4}, {10}}
	rng := rand.New(rand.NewSource(1))
	d := EstimateDmax(vecs, rng, 10)
	if d != 10 {
		t.Fatalf("dmax = %v, want 10", d)
	}
	if EstimateDmax(nil, rng, 10) != 0 {
		t.Fatal("dmax of empty set must be 0")
	}
	if EstimateDmax([][]float32{{1}}, rng, 10) != 0 {
		t.Fatal("dmax of singleton must be 0")
	}
}

func TestRandomSelection(t *testing.T) {
	ds := data.Uniform(100, 4, 0, 1, 2)
	rng := rand.New(rand.NewSource(3))
	r, err := Random(ds.Vectors, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Indices) != 10 || len(r.Vectors) != 10 {
		t.Fatalf("got %d refs", len(r.Indices))
	}
	seen := map[int]bool{}
	for _, i := range r.Indices {
		if seen[i] {
			t.Fatal("duplicate reference")
		}
		seen[i] = true
	}
}

func TestSSSSpread(t *testing.T) {
	ds := data.Uniform(500, 8, 0, 1, 4)
	rng := rand.New(rand.NewSource(5))
	dmax := EstimateDmax(ds.Vectors, rng, 10)
	r, err := SSS(ds.Vectors, 10, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Indices) != 10 {
		t.Fatalf("got %d refs", len(r.Indices))
	}
	// Pairwise distances should respect (approximately) the f*dmax
	// admission threshold: all but the first are admitted only beyond the
	// threshold, and f is only relaxed if needed, so check a floor of
	// 0.3*0.8^5*dmax.
	floor := 0.3 * 0.32768 * dmax
	for i := 0; i < len(r.Vectors); i++ {
		for j := i + 1; j < len(r.Vectors); j++ {
			if d := vecmath.Dist(r.Vectors[i], r.Vectors[j]); d < floor {
				t.Fatalf("refs %d,%d only %v apart (floor %v)", i, j, d, floor)
			}
		}
	}
}

// SSS references must be more spread than random ones on clustered data.
func TestSSSBeatsRandomSpread(t *testing.T) {
	ds := data.Generate(data.Config{N: 600, Dim: 8, Clusters: 3, Lo: 0, Hi: 1, Seed: 9})
	minPairwise := func(refs [][]float32) float64 {
		best := 1e18
		for i := 0; i < len(refs); i++ {
			for j := i + 1; j < len(refs); j++ {
				if d := vecmath.Dist(refs[i], refs[j]); d < best {
					best = d
				}
			}
		}
		return best
	}
	var sssSum, rndSum float64
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, err := SSS(ds.Vectors, 8, 0.3, rng)
		if err != nil {
			t.Fatal(err)
		}
		sssSum += minPairwise(s.Vectors)
		r, err := Random(ds.Vectors, 8, rng)
		if err != nil {
			t.Fatal(err)
		}
		rndSum += minPairwise(r.Vectors)
	}
	if sssSum <= rndSum {
		t.Errorf("SSS min-pairwise %v should exceed random %v", sssSum, rndSum)
	}
}

func TestSSSDyn(t *testing.T) {
	ds := data.Uniform(300, 8, 0, 1, 6)
	rng := rand.New(rand.NewSource(7))
	r, err := SSSDyn(ds.Vectors, 10, 0.3, 32, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Indices) != 10 {
		t.Fatalf("got %d refs", len(r.Indices))
	}
	seen := map[int]bool{}
	for _, i := range r.Indices {
		if seen[i] {
			t.Fatal("duplicate reference after dynamic replacement")
		}
		seen[i] = true
	}
}

func TestValidation(t *testing.T) {
	vecs := [][]float32{{1}, {2}}
	rng := rand.New(rand.NewSource(1))
	if _, err := Random(vecs, 0, rng); err == nil {
		t.Error("m=0 must fail")
	}
	if _, err := Random(vecs, 3, rng); err == nil {
		t.Error("m>n must fail")
	}
	if _, err := SSS(vecs, 3, 0.3, rng); err == nil {
		t.Error("SSS m>n must fail")
	}
}

// SSS must terminate (by relaxing f) even on pathological data where all
// points coincide except a few.
func TestSSSDegenerateData(t *testing.T) {
	vecs := make([][]float32, 50)
	for i := range vecs {
		vecs[i] = []float32{0, 0}
	}
	vecs[0] = []float32{1, 1}
	vecs[1] = []float32{0.5, 0.1}
	rng := rand.New(rand.NewSource(11))
	r, err := SSS(vecs, 3, 0.9, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Indices) != 3 {
		t.Fatalf("got %d refs", len(r.Indices))
	}
}

// An infinite component makes the diameter estimate infinite, against
// which no relaxed threshold ever admits a reference: SSS reports it
// instead of relaxing forever.
func TestSSSStopsOnNonFiniteDiameter(t *testing.T) {
	for _, x := range []float64{math.Inf(1), math.Inf(-1)} {
		vecs := make([][]float32, 20)
		for i := range vecs {
			vecs[i] = []float32{float32(i), 1}
		}
		vecs[3][1] = float32(x)
		done := make(chan error, 1)
		go func() {
			_, err := SSS(vecs, 4, DefaultFraction, rand.New(rand.NewSource(1)))
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("SSS over a %v component chose references", x)
			}
		case <-time.After(time.Minute):
			t.Fatalf("SSS over a %v component has not returned in a minute", x)
		}
	}
}
