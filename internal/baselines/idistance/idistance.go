// Package idistance implements iDistance [73], the exact kNN baseline of
// §5: data is partitioned around cluster centres; each point is keyed by
// partition id and its distance to the partition centre; keys live in a
// disk B+-tree. A query expands a search radius r (the paper runs r₀ =
// 0.01, Δr = 0.01) probing, per partition, the one-dimensional key range
// its sphere shell intersects, until the k-th best distance is covered —
// at which point the answer is provably exact.
package idistance

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"github.com/hd-index/hdindex/internal/baselines"
	"github.com/hd-index/hdindex/internal/bptree"
	"github.com/hd-index/hdindex/internal/kmeans"
	"github.com/hd-index/hdindex/internal/pager"
	"github.com/hd-index/hdindex/internal/topk"
	"github.com/hd-index/hdindex/internal/vecmath"
	"github.com/hd-index/hdindex/internal/vecstore"
)

// Params configures iDistance.
type Params struct {
	Clusters  int     // partitions; default max(16, sqrt(n)/2)
	R0        float64 // initial radius (paper: 0.01, scaled by data diameter)
	DeltaR    float64 // radius increment (paper: 0.01, likewise scaled)
	PageSize  int
	PoolPages int
	Seed      int64
}

// Index is a built iDistance index.
type Index struct {
	dir      string
	params   Params
	dim      int
	centers  [][]float32
	radii    []float64 // max distance of any member to its centre
	tree     *bptree.Tree
	treePgr  *pager.Pager
	vectors  *vecstore.Store
	vecPager *pager.Pager
	scale    float64 // converts paper-units (fractions) to absolute radii
}

const keyLen = 12 // [4B partition][8B sortable float distance]

// Build constructs the index in dir.
func Build(dir string, vectors [][]float32, p Params) (*Index, error) {
	if len(vectors) == 0 {
		return nil, errors.New("idistance: empty dataset")
	}
	if p.Clusters <= 0 {
		c := int(math.Sqrt(float64(len(vectors)))) / 2
		if c < 16 {
			c = 16
		}
		if c > len(vectors) {
			c = len(vectors)
		}
		p.Clusters = c
	}
	if p.R0 == 0 {
		p.R0 = 0.01
	}
	if p.DeltaR == 0 {
		p.DeltaR = 0.01
	}
	if p.PageSize == 0 {
		p.PageSize = 4096
	}
	if p.PoolPages == 0 {
		p.PoolPages = 256
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	dim := len(vectors[0])

	rng := rand.New(rand.NewSource(p.Seed))
	km, err := kmeans.Run(vectors, p.Clusters, 10, rng)
	if err != nil {
		return nil, err
	}

	ix := &Index{dir: dir, params: p, dim: dim, centers: km.Centroids}
	ix.radii = make([]float64, len(km.Centroids))
	keys := make([][]byte, len(vectors))
	vals := make([][]byte, len(vectors))
	type rec struct {
		key []byte
		val []byte
	}
	recs := make([]rec, len(vectors))
	for i, v := range vectors {
		c := km.Assign[i]
		d := vecmath.Dist(v, km.Centroids[c])
		if d > ix.radii[c] {
			ix.radii[c] = d
		}
		key := make([]byte, keyLen)
		binary.BigEndian.PutUint32(key[0:], uint32(c))
		vecmath.PutSortableFloat64(key[4:], d)
		val := make([]byte, 8)
		binary.BigEndian.PutUint64(val, uint64(i))
		recs[i] = rec{key, val}
	}
	// Sort by key for bulk load.
	sort.Slice(recs, func(i, j int) bool { return bytes.Compare(recs[i].key, recs[j].key) < 0 })
	for i, r := range recs {
		keys[i], vals[i] = r.key, r.val
	}

	tp, err := pager.Open(filepath.Join(dir, "idist_tree.pg"), pager.Options{
		Create: true, PageSize: p.PageSize, PoolPages: p.PoolPages,
	})
	if err != nil {
		return nil, err
	}
	tree, err := bptree.Create(tp, bptree.Config{KeyLen: keyLen, ValLen: 8})
	if err != nil {
		tp.Close()
		return nil, err
	}
	if err := tree.BulkLoad(&bptree.SliceSource{Keys: keys, Values: vals}); err != nil {
		tp.Close()
		return nil, err
	}
	ix.tree, ix.treePgr = tree, tp

	vp, err := pager.Open(filepath.Join(dir, "idist_vecs.pg"), pager.Options{
		Create: true, PageSize: p.PageSize, PoolPages: p.PoolPages,
	})
	if err != nil {
		tp.Close()
		return nil, err
	}
	vs, err := vecstore.Create(vp, dim)
	if err != nil {
		tp.Close()
		vp.Close()
		return nil, err
	}
	if err := vs.BuildFrom(vectors); err != nil {
		tp.Close()
		vp.Close()
		return nil, err
	}
	ix.vectors, ix.vecPager = vs, vp

	// The paper's r0/Δr of 0.01 are fractions of the data extent; scale
	// by the largest partition radius so the expansion schedule is
	// dataset-independent.
	for _, r := range ix.radii {
		if r > ix.scale {
			ix.scale = r
		}
	}
	if ix.scale == 0 {
		ix.scale = 1
	}
	return ix, nil
}

// Name implements baselines.Index.
func (ix *Index) Name() string { return "iDistance" }

// Search implements baselines.Index. Results are exact.
func (ix *Index) Search(q []float32, k int) ([]baselines.Result, error) {
	if len(q) != ix.dim {
		return nil, fmt.Errorf("idistance: query has %d dims, index has %d", len(q), ix.dim)
	}
	if k < 1 {
		return nil, errors.New("idistance: k must be >= 1")
	}
	nc := len(ix.centers)
	qdist := make([]float64, nc)
	for c, ctr := range ix.centers {
		qdist[c] = vecmath.Dist(q, ctr)
	}

	best := topk.New(k)
	// Per-partition scanned interval [lo, hi) in distance space; nothing
	// scanned yet.
	scannedLo := make([]float64, nc)
	scannedHi := make([]float64, nc)
	for c := range scannedLo {
		scannedLo[c] = math.Inf(1)
		scannedHi[c] = math.Inf(-1)
	}
	vec := make([]float32, ix.dim)

	r := ix.params.R0 * ix.scale
	dr := ix.params.DeltaR * ix.scale
	maxR := 2 * ix.scale // beyond twice the max radius every sphere is covered

	probe := func(c int, lo, hi float64) error {
		if hi <= lo {
			return nil
		}
		loKey := make([]byte, keyLen)
		hiKey := make([]byte, keyLen)
		binary.BigEndian.PutUint32(loKey[0:], uint32(c))
		vecmath.PutSortableFloat64(loKey[4:], lo)
		binary.BigEndian.PutUint32(hiKey[0:], uint32(c))
		vecmath.PutSortableFloat64(hiKey[4:], hi)
		return ix.tree.Scan(loKey, hiKey, func(key, val []byte) bool {
			id := binary.BigEndian.Uint64(val)
			v, err := ix.vectors.Get(id, vec)
			if err != nil {
				return false
			}
			best.Push(id, vecmath.DistSq(q, v))
			return true
		})
	}

	for {
		for c := 0; c < nc; c++ {
			// Shell of partition c the ball B(q, r) intersects.
			lo := qdist[c] - r
			if lo < 0 {
				lo = 0
			}
			hi := qdist[c] + r
			if hi > ix.radii[c] {
				hi = ix.radii[c]
			}
			if lo > hi {
				continue // ball does not reach this partition
			}
			// Scan only the not-yet-visited sub-ranges.
			if scannedLo[c] > scannedHi[c] {
				if err := probe(c, lo, hi); err != nil {
					return nil, err
				}
				scannedLo[c], scannedHi[c] = lo, hi
				continue
			}
			if lo < scannedLo[c] {
				if err := probe(c, lo, math.Nextafter(scannedLo[c], lo)); err != nil {
					return nil, err
				}
				scannedLo[c] = lo
			}
			if hi > scannedHi[c] {
				if err := probe(c, math.Nextafter(scannedHi[c], hi), hi); err != nil {
					return nil, err
				}
				scannedHi[c] = hi
			}
		}
		// Exactness: every point within distance r of q has been seen.
		if bound, ok := best.Bound(); ok && math.Sqrt(bound) <= r {
			break
		}
		if r >= maxR {
			break // everything scanned
		}
		r += dr
	}

	items := best.Items()
	out := make([]baselines.Result, len(items))
	for i, it := range items {
		out[i] = baselines.Result{ID: it.ID, Dist: math.Sqrt(it.Dist)}
	}
	return out, nil
}

// SizeBytes implements baselines.Index.
func (ix *Index) SizeBytes() int64 {
	return ix.treePgr.FileSize() + ix.vecPager.FileSize()
}

// Close implements baselines.Index.
func (ix *Index) Close() error {
	err1 := ix.treePgr.Close()
	err2 := ix.vecPager.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
