package main

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
)

// The driver owns its inputs: generator, ground truth and scoring live
// here so an edit to internal/data or internal/metrics cannot move a
// benchmark number.

const (
	dim      = 128
	domainHi = 255.0
)

// mixture is a seeded Gaussian mixture over [0,255]^128 with integer
// values and n/2000 (min 8) clusters — the shape of data.SIFTLike. It
// is kept so held-out insert vectors come from the same distribution
// as the base set.
type mixture struct {
	rng     *rand.Rand
	centers [][]float64
	sigma   float64
}

func newMixture(n int, seed int64) *mixture {
	clusters := max(n/2000, 8)
	m := &mixture{rng: rand.New(rand.NewSource(seed)), sigma: 0.05 * domainHi}
	m.centers = make([][]float64, clusters)
	for c := range m.centers {
		ctr := make([]float64, dim)
		for d := range ctr {
			ctr[d] = domainHi * (0.15 + 0.7*m.rng.Float64())
		}
		m.centers[c] = ctr
	}
	return m
}

func quantize(x float64) float32 {
	return float32(math.Round(min(max(x, 0), domainHi)))
}

// draw returns n fresh vectors backed by one flat allocation.
func (m *mixture) draw(n int) [][]float32 {
	flat := make([]float32, n*dim)
	vecs := make([][]float32, n)
	for i := range vecs {
		ctr := m.centers[m.rng.Intn(len(m.centers))]
		v := flat[i*dim : (i+1)*dim : (i+1)*dim]
		for d := range v {
			v[d] = quantize(ctr[d] + m.rng.NormFloat64()*m.sigma)
		}
		vecs[i] = v
	}
	return vecs
}

// makeQueries perturbs nq distinct base vectors with 5 % Gaussian noise
// (of the domain width), keeping the integer domain.
func makeQueries(base [][]float32, nq int, rng *rand.Rand) [][]float32 {
	picks := rng.Perm(len(base))[:nq]
	qs := make([][]float32, nq)
	for i, p := range picks {
		q := make([]float32, dim)
		for d, x := range base[p] {
			q[d] = quantize(float64(x) + rng.NormFloat64()*0.05*domainHi)
		}
		qs[i] = q
	}
	return qs
}

// neighbour is one exact or returned neighbour.
type neighbour struct {
	id   uint64
	dist float64
}

// distSqWithin returns the squared distance of a and b, or ok = false
// once it is known to exceed bound. Every value the generator emits is
// an integer in [0,255], so the float32 sums (at most 128*255^2 < 2^24)
// are exact and the ground truth does not depend on summation order.
func distSqWithin(a, b []float32, bound float32) (sum float32, ok bool) {
	for i := 0; i < len(a); i += 16 {
		var s0, s1, s2, s3 float32
		x, y := a[i:i+16], b[i:i+16]
		for j := 0; j < 16; j += 4 {
			d0, d1, d2, d3 := x[j]-y[j], x[j+1]-y[j+1], x[j+2]-y[j+2], x[j+3]-y[j+3]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		if sum += s0 + s1 + s2 + s3; sum > bound {
			return sum, false
		}
	}
	return sum, true
}

// bruteForce returns the exact k nearest live vectors of every query,
// nearest first (ties by id), over vecs[i] with id ids[i]. Queries are
// split across nproc goroutines; the result does not depend on the
// split.
func bruteForce(vecs [][]float32, ids []uint64, queries [][]float32, k int) [][]neighbour {
	out := make([][]neighbour, len(queries))
	workers := min(runtime.GOMAXPROCS(0), len(queries))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for qi := w; qi < len(queries); qi += workers {
				out[qi] = exactKNN(vecs, ids, queries[qi], k)
			}
		}(w)
	}
	wg.Wait()
	return out
}

func exactKNN(vecs [][]float32, ids []uint64, q []float32, k int) []neighbour {
	best := make([]neighbour, 0, k+1)
	worse := func(a, b neighbour) bool { // a ranks after b
		return a.dist > b.dist || (a.dist == b.dist && a.id > b.id)
	}
	bound := float32(math.MaxFloat32)
	for i, v := range vecs {
		d, ok := distSqWithin(q, v, bound)
		nb := neighbour{id: ids[i], dist: float64(d)}
		if !ok || (len(best) == k && !worse(best[k-1], nb)) {
			continue
		}
		pos := sort.Search(len(best), func(j int) bool { return worse(best[j], nb) })
		best = append(best, neighbour{})
		copy(best[pos+1:], best[pos:])
		best[pos] = nb
		if len(best) > k {
			best = best[:k]
		}
		if len(best) == k {
			bound = float32(best[k-1].dist)
		}
	}
	for i := range best {
		best[i].dist = math.Sqrt(best[i].dist)
	}
	return best
}

// recallAndAP scores one returned list against the exact one: recall@k
// and the paper's AP@k (Definition 2: precision j/i summed at every
// rank i holding a true neighbour, divided by k).
func recallAndAP(got, truth []neighbour, k int) (recall, ap float64) {
	rel := make(map[uint64]struct{}, k)
	for _, nb := range truth[:min(k, len(truth))] {
		rel[nb.id] = struct{}{}
	}
	hits := 0
	for i, nb := range got[:min(k, len(got))] {
		if _, ok := rel[nb.id]; ok {
			hits++
			ap += float64(hits) / float64(i+1)
		}
	}
	return float64(hits) / float64(k), ap / float64(k)
}

func seqIDs(n int) []uint64 {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i)
	}
	return ids
}
