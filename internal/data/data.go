// Package data provides the datasets of the reproduction: seeded
// synthetic generators standing in for the paper's corpora (Table 4),
// query/hold-out handling, exact ground-truth computation, and the
// fvecs/ivecs file formats the original corpora ship in.
//
// Substitution note: the paper's datasets are real
// SIFT/GIST/SURF/audio/text features. We generate Gaussian-mixture data
// with the same dimensionality and value domains, integer-quantised where
// the originals are integral (SIFT, Enron). What drives kANN index
// behaviour — dimensionality, metric concentration, clustered structure —
// is preserved; scales are configurable.
package data

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"github.com/hd-index/hdindex/internal/fanout"
	"github.com/hd-index/hdindex/internal/topk"
	"github.com/hd-index/hdindex/internal/vecmath"
)

// Dataset is an in-memory collection of vectors plus its descriptive
// parameters (the domain bounds drive the Hilbert quantiser).
type Dataset struct {
	Name    string
	Dim     int
	Lo, Hi  float32 // value domain, as in Table 4
	Vectors [][]float32
}

// Config parameterises the synthetic generator.
type Config struct {
	Name     string
	N        int     // number of vectors
	Dim      int     // dimensionality ν
	Clusters int     // mixture components; <=0 means max(8, N/2000)
	Spread   float64 // cluster std-dev as a fraction of the domain width (default 0.05)
	Lo, Hi   float32 // value domain
	Integer  bool    // round values to integers (SIFT, Enron)
	Seed     int64
}

// Generate produces a clustered dataset per cfg. The same cfg always
// produces the same data.
func Generate(cfg Config) *Dataset {
	if cfg.N < 0 || cfg.Dim <= 0 || cfg.Hi <= cfg.Lo {
		panic(fmt.Sprintf("data: invalid config %+v", cfg))
	}
	clusters := cfg.Clusters
	if clusters <= 0 {
		clusters = cfg.N / 2000
		if clusters < 8 {
			clusters = 8
		}
	}
	spread := cfg.Spread
	if spread == 0 {
		spread = 0.05
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	width := float64(cfg.Hi) - float64(cfg.Lo)
	sigma := spread * width

	centers := make([][]float64, clusters)
	for c := range centers {
		ctr := make([]float64, cfg.Dim)
		for d := range ctr {
			// Keep centres away from the walls so clusters are not
			// half-clipped.
			ctr[d] = float64(cfg.Lo) + width*(0.15+0.7*rng.Float64())
		}
		centers[c] = ctr
	}

	vecs := make([][]float32, cfg.N)
	for i := range vecs {
		ctr := centers[rng.Intn(clusters)]
		v := make([]float32, cfg.Dim)
		for d := range v {
			x := ctr[d] + rng.NormFloat64()*sigma
			if x < float64(cfg.Lo) {
				x = float64(cfg.Lo)
			}
			if x > float64(cfg.Hi) {
				x = float64(cfg.Hi)
			}
			if cfg.Integer {
				x = float64(int64(x + 0.5))
			}
			v[d] = float32(x)
		}
		vecs[i] = v
	}
	return &Dataset{Name: cfg.Name, Dim: cfg.Dim, Lo: cfg.Lo, Hi: cfg.Hi, Vectors: vecs}
}

// Table 4 stand-ins. n scales the dataset; the paper's sizes are the
// defaults the full-scale harness uses, tests pass much smaller n.

// SIFTLike mirrors the SIFT corpora: 128-d integer features in [0,255].
func SIFTLike(n int, seed int64) *Dataset {
	return Generate(Config{Name: "sift", N: n, Dim: 128, Lo: 0, Hi: 255, Integer: true, Seed: seed})
}

// AudioLike mirrors Audio: 192-d float features in [-1,1].
func AudioLike(n int, seed int64) *Dataset {
	return Generate(Config{Name: "audio", N: n, Dim: 192, Lo: -1, Hi: 1, Seed: seed})
}

// SUNLike mirrors SUN GIST: 512-d float features in [0,1].
func SUNLike(n int, seed int64) *Dataset {
	return Generate(Config{Name: "sun", N: n, Dim: 512, Lo: 0, Hi: 1, Seed: seed})
}

// YorckLike mirrors Yorck SURF: 128-d float features in [-1,1].
func YorckLike(n int, seed int64) *Dataset {
	return Generate(Config{Name: "yorck", N: n, Dim: 128, Lo: -1, Hi: 1, Seed: seed})
}

// EnronLike mirrors Enron bi-grams: 1369-d integer counts. The original
// domain is [0,252429] but heavily skewed; we use a wide integer domain.
func EnronLike(n int, seed int64) *Dataset {
	return Generate(Config{Name: "enron", N: n, Dim: 1369, Lo: 0, Hi: 4096, Integer: true, Spread: 0.02, Seed: seed})
}

// GloveLike mirrors Glove embeddings: 100-d floats in [-10,10].
func GloveLike(n int, seed int64) *Dataset {
	return Generate(Config{Name: "glove", N: n, Dim: 100, Lo: -10, Hi: 10, Seed: seed})
}

// Uniform generates an unclustered dataset — the hard case for locality
// arguments, used by robustness tests.
func Uniform(n, dim int, lo, hi float32, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	vecs := make([][]float32, n)
	for i := range vecs {
		v := make([]float32, dim)
		for d := range v {
			v[d] = lo + (hi-lo)*rng.Float32()
		}
		vecs[i] = v
	}
	return &Dataset{Name: "uniform", Dim: dim, Lo: lo, Hi: hi, Vectors: vecs}
}

// HoldOutQueries removes q random vectors from the dataset and returns
// them as the query set — the paper's protocol for SUN, Yorck, Enron and
// Glove (§5.1, "we reserved ... random data points ... as queries").
func (ds *Dataset) HoldOutQueries(q int, seed int64) [][]float32 {
	if q <= 0 || q >= len(ds.Vectors) {
		panic(fmt.Sprintf("data: cannot hold out %d of %d", q, len(ds.Vectors)))
	}
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(len(ds.Vectors))[:q]
	taken := make(map[int]struct{}, q)
	queries := make([][]float32, 0, q)
	for _, i := range idx {
		taken[i] = struct{}{}
		queries = append(queries, ds.Vectors[i])
	}
	rest := make([][]float32, 0, len(ds.Vectors)-q)
	for i, v := range ds.Vectors {
		if _, ok := taken[i]; !ok {
			rest = append(rest, v)
		}
	}
	ds.Vectors = rest
	return queries
}

// PerturbedQueries returns q copies of random dataset points with small
// Gaussian noise added — queries near but not on the data, mirroring the
// provided query sets of the SIFT and Audio corpora.
func (ds *Dataset) PerturbedQueries(q int, noiseFrac float64, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	sigma := noiseFrac * (float64(ds.Hi) - float64(ds.Lo))
	queries := make([][]float32, q)
	for i := range queries {
		src := ds.Vectors[rng.Intn(len(ds.Vectors))]
		v := make([]float32, ds.Dim)
		for d := range v {
			x := float64(src[d]) + rng.NormFloat64()*sigma
			if x < float64(ds.Lo) {
				x = float64(ds.Lo)
			}
			if x > float64(ds.Hi) {
				x = float64(ds.Hi)
			}
			v[d] = float32(x)
		}
		queries[i] = v
	}
	return queries
}

// GroundTruth computes the exact k nearest neighbours of every query by
// linear scan, returning ranked ids and distances. The call counts as one
// unit of work and its queries are parts that idle CPUs join
// (internal/fanout).
func GroundTruth(vectors, queries [][]float32, k int) (ids [][]uint64, dists [][]float64) {
	ids = make([][]uint64, len(queries))
	dists = make([][]float64, len(queries))
	ctx, leave := fanout.Enter(context.TODO())
	defer leave()
	_ = fanout.Each(ctx, len(queries), func(_ context.Context, qi int) error { // no part fails
		l := topk.New(k)
		for id, v := range vectors {
			l.Push(uint64(id), vecmath.DistSq(queries[qi], v))
		}
		items := l.Items()
		ids[qi], dists[qi] = make([]uint64, len(items)), make([]float64, len(items))
		for i, it := range items {
			ids[qi][i], dists[qi][i] = it.ID, math.Sqrt(it.Dist)
		}
		return nil
	})
	return ids, dists
}
