// Package refsel selects reference objects (pivots) for HD-Index.
//
// §3.3: reference objects approximate query-object distances through the
// triangular and Ptolemaic inequalities, so they should be well spread in
// the data space. The paper evaluates three selectors (Fig. 10): Random,
// SSS (sparse spatial selection [56]) — the recommended one — and
// SSS-Dyn [18], which keeps refining the set by replacing the least
// useful pivot.
package refsel

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/hd-index/hdindex/internal/vecmath"
)

// DefaultFraction is the paper's f = 0.3 (§3.4): a candidate becomes a
// reference object only if it is at least f·dmax away from all current
// reference objects.
const DefaultFraction = 0.3

// Result carries the selected reference objects.
type Result struct {
	Indices []int       // positions in the dataset
	Vectors [][]float32 // the reference vectors themselves (views)
}

// EstimateDmax estimates the diameter of the dataset with the paper's
// heuristic: start from a random object, jump to its farthest neighbour,
// and repeat until the distance stops growing (or maxIters).
func EstimateDmax(vectors [][]float32, rng *rand.Rand, maxIters int) float64 {
	if len(vectors) < 2 {
		return 0
	}
	if maxIters <= 0 {
		maxIters = 10
	}
	cur := rng.Intn(len(vectors))
	var dmax float64
	for iter := 0; iter < maxIters; iter++ {
		far, fd := farthest(vectors, cur)
		if fd <= dmax {
			break
		}
		dmax = fd
		cur = far
	}
	return dmax
}

func farthest(vectors [][]float32, from int) (int, float64) {
	best, bestD := from, -1.0
	v := vectors[from]
	for i, u := range vectors {
		if d := vecmath.DistSq(v, u); d > bestD {
			best, bestD = i, d
		}
	}
	return best, sqrt(bestD)
}

// Random picks m distinct reference objects uniformly at random.
func Random(vectors [][]float32, m int, rng *rand.Rand) (*Result, error) {
	if err := validate(vectors, m); err != nil {
		return nil, err
	}
	idx := rng.Perm(len(vectors))[:m]
	return mkResult(vectors, idx), nil
}

// SSS implements sparse spatial selection: scan the dataset (from a
// random start) admitting any object whose distance to all previously
// selected references exceeds f·dmax, until m references are found.
// If a full scan cannot find m such objects, f is relaxed geometrically —
// the pragmatic fallback needed on small or tightly clustered data.
func SSS(vectors [][]float32, m int, f float64, rng *rand.Rand) (*Result, error) {
	if err := validate(vectors, m); err != nil {
		return nil, err
	}
	if f <= 0 {
		f = DefaultFraction
	}
	dmax := EstimateDmax(vectors, rng, 10)
	selected := []int{rng.Intn(len(vectors))}
	for len(selected) < m {
		found := scanFor(vectors, selected, f*dmax)
		if found < 0 {
			f *= 0.8 // relax and retry; no threshold helps past an infinite or NaN dmax
			if !(f*dmax >= 1e-12) || math.IsInf(dmax, 1) {
				return nil, fmt.Errorf("refsel: cannot find %d distinct references", m)
			}
			continue
		}
		selected = append(selected, found)
	}
	return mkResult(vectors, selected), nil
}

// scanFor returns the first object farther than threshold from every
// selected reference, or -1.
func scanFor(vectors [][]float32, selected []int, threshold float64) int {
	thSq := threshold * threshold
	isSel := make(map[int]struct{}, len(selected))
	for _, s := range selected {
		isSel[s] = struct{}{}
	}
	for i, v := range vectors {
		if _, ok := isSel[i]; ok {
			continue
		}
		ok := true
		for _, s := range selected {
			if vecmath.DistSq(v, vectors[s]) <= thSq {
				ok = false
				break
			}
		}
		if ok {
			return i
		}
	}
	return -1
}

// SSSDyn implements the dynamic variant [18]: after SSS fills the set,
// keep scanning; every further qualifying object challenges the current
// reference that contributes least to lower-bounding the distances of a
// fixed sample of object pairs, and replaces it if it contributes more.
func SSSDyn(vectors [][]float32, m int, f float64, pairSamples int, rng *rand.Rand) (*Result, error) {
	base, err := SSS(vectors, m, f, rng)
	if err != nil {
		return nil, err
	}
	if f <= 0 {
		f = DefaultFraction
	}
	if pairSamples <= 0 {
		pairSamples = 64
	}
	// Fixed, pre-selected object pairs (the paper's evaluation set).
	type pair struct{ a, b int }
	pairs := make([]pair, pairSamples)
	for i := range pairs {
		pairs[i] = pair{rng.Intn(len(vectors)), rng.Intn(len(vectors))}
	}
	// contribution of reference r = Σ over pairs of the triangular lower
	// bound it yields: |d(a,r) - d(b,r)|. Higher = tighter = better.
	contribution := func(r int) float64 {
		var sum float64
		for _, p := range pairs {
			da := vecmath.Dist(vectors[p.a], vectors[r])
			db := vecmath.Dist(vectors[p.b], vectors[r])
			if da > db {
				sum += da - db
			} else {
				sum += db - da
			}
		}
		return sum
	}

	selected := append([]int(nil), base.Indices...)
	scores := make([]float64, m)
	for i, r := range selected {
		scores[i] = contribution(r)
	}
	dmax := EstimateDmax(vectors, rng, 10)
	thSq := (f * dmax) * (f * dmax)
	inSet := make(map[int]struct{}, m)
	for _, s := range selected {
		inSet[s] = struct{}{}
	}
	for i, v := range vectors {
		if _, ok := inSet[i]; ok {
			continue
		}
		qualifies := true
		for _, s := range selected {
			if vecmath.DistSq(v, vectors[s]) <= thSq {
				qualifies = false
				break
			}
		}
		if !qualifies {
			continue
		}
		victim, victimScore := 0, scores[0]
		for j := 1; j < m; j++ {
			if scores[j] < victimScore {
				victim, victimScore = j, scores[j]
			}
		}
		if c := contribution(i); c > victimScore {
			delete(inSet, selected[victim])
			selected[victim] = i
			scores[victim] = c
			inSet[i] = struct{}{}
		}
	}
	return mkResult(vectors, selected), nil
}

func validate(vectors [][]float32, m int) error {
	if m < 1 {
		return fmt.Errorf("refsel: m must be >= 1, got %d", m)
	}
	if m > len(vectors) {
		return fmt.Errorf("refsel: m = %d exceeds dataset size %d", m, len(vectors))
	}
	return nil
}

func mkResult(vectors [][]float32, idx []int) *Result {
	r := &Result{Indices: idx, Vectors: make([][]float32, len(idx))}
	for i, id := range idx {
		r.Vectors[i] = vectors[id]
	}
	return r
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
