// Package multicurves implements Multicurves [66] (Valle et al., CIKM
// 2008), the space-filling-curve baseline of §5: τ Hilbert curves, each
// responsible for a disjoint subset of the dimensions, each indexed by a
// B+-tree. Unlike the RDB-tree, a Multicurves leaf stores the *complete
// object descriptor*, which avoids random accesses at query time but
// multiplies the index size by τ — the trait that stops it scaling
// (≈1.2 TB for SIFT100M in §5.4.3, and "NP" for SUN because a 512-d
// descriptor plus key exceeds what a 4 KB leaf can hold usefully).
package multicurves

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"github.com/hd-index/hdindex/internal/baselines"
	"github.com/hd-index/hdindex/internal/bptree"
	"github.com/hd-index/hdindex/internal/hilbert"
	"github.com/hd-index/hdindex/internal/pager"
	"github.com/hd-index/hdindex/internal/topk"
	"github.com/hd-index/hdindex/internal/vecmath"
)

// Params configures Multicurves; the paper runs τ = 8, α = 4096.
type Params struct {
	Tau       int // number of curves (must divide ν)
	Omega     int // Hilbert order
	Alpha     int // candidates retrieved per curve
	PageSize  int
	PoolPages int
	Parallel  bool
}

// Index is a built Multicurves index.
type Index struct {
	dir    string
	params Params
	dim    int
	eta    int
	lo, hi []float32
	curves []*hilbert.Curve
	quants []*hilbert.Quantizer
	trees  []*bptree.Tree
	pagers []*pager.Pager
}

// Build constructs the index in dir.
func Build(dir string, vectors [][]float32, p Params) (*Index, error) {
	if len(vectors) == 0 {
		return nil, errors.New("multicurves: empty dataset")
	}
	dim := len(vectors[0])
	if p.Tau <= 0 {
		p.Tau = 8
	}
	if dim%p.Tau != 0 {
		return nil, fmt.Errorf("multicurves: tau %d does not divide dimensionality %d", p.Tau, dim)
	}
	if p.Omega == 0 {
		p.Omega = 8
	}
	if p.Alpha == 0 {
		p.Alpha = 4096
	}
	if p.PageSize == 0 {
		p.PageSize = 4096
	}
	if p.PoolPages == 0 {
		p.PoolPages = 256
	}
	eta := dim / p.Tau
	keyLen := (eta*p.Omega + 7) / 8
	valLen := 8 + 4*dim // id + full descriptor: the Multicurves design
	if 2*(keyLen+valLen) > p.PageSize-19 {
		// Fewer than two descriptors per leaf page makes the tree
		// degenerate; the paper marks these datasets "NP" — index
		// construction not possible due to an inherent limitation
		// (SUN's 512-d and Enron's 1369-d descriptors at 4 KB pages).
		return nil, fmt.Errorf("multicurves: %d-dim descriptors do not fit a %d-byte page (NP)", dim, p.PageSize)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}

	lo, hi := vecmath.MinMax(vectors, dim)
	ix := &Index{dir: dir, params: p, dim: dim, eta: eta, lo: lo, hi: hi}
	ix.curves = make([]*hilbert.Curve, p.Tau)
	ix.quants = make([]*hilbert.Quantizer, p.Tau)
	ix.trees = make([]*bptree.Tree, p.Tau)
	ix.pagers = make([]*pager.Pager, p.Tau)

	errs := make([]error, p.Tau)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for t := 0; t < p.Tau; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[t] = ix.buildCurve(t, vectors, keyLen, valLen)
		}(t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			ix.Close()
			return nil, err
		}
	}
	return ix, nil
}

func (ix *Index) buildCurve(t int, vectors [][]float32, keyLen, valLen int) error {
	p := ix.params
	curve, err := hilbert.New(ix.eta, p.Omega)
	if err != nil {
		return err
	}
	start := t * ix.eta
	quant := hilbert.NewQuantizer(ix.lo[start:start+ix.eta], ix.hi[start:start+ix.eta], p.Omega)

	type rec struct {
		key []byte
		val []byte
	}
	recs := make([]rec, len(vectors))
	coords := make([]uint32, ix.eta)
	for id, v := range vectors {
		quant.Coords(coords, v[start:start+ix.eta])
		val := make([]byte, valLen)
		binary.BigEndian.PutUint64(val[0:8], uint64(id))
		for d, x := range v {
			binary.LittleEndian.PutUint32(val[8+4*d:], math.Float32bits(x))
		}
		recs[id] = rec{key: curve.Encode(nil, coords), val: val}
	}
	sort.Slice(recs, func(i, j int) bool { return bytes.Compare(recs[i].key, recs[j].key) < 0 })
	keys := make([][]byte, len(recs))
	vals := make([][]byte, len(recs))
	for i, r := range recs {
		keys[i], vals[i] = r.key, r.val
	}

	pgr, err := pager.Open(filepath.Join(ix.dir, fmt.Sprintf("mc_%02d.pg", t)), pager.Options{
		Create: true, PageSize: p.PageSize, PoolPages: p.PoolPages,
	})
	if err != nil {
		return err
	}
	tree, err := bptree.Create(pgr, bptree.Config{KeyLen: keyLen, ValLen: valLen})
	if err != nil {
		pgr.Close()
		return err
	}
	if err := tree.BulkLoad(&bptree.SliceSource{Keys: keys, Values: vals}); err != nil {
		pgr.Close()
		return err
	}
	ix.curves[t], ix.quants[t] = curve, quant
	ix.trees[t], ix.pagers[t] = tree, pgr
	return nil
}

// Name implements baselines.Index.
func (ix *Index) Name() string { return "Multicurves" }

// Search implements baselines.Index: per curve, retrieve the α entries
// nearest in key order, compute exact distances from the leaf-resident
// descriptors, and merge.
func (ix *Index) Search(q []float32, k int) ([]baselines.Result, error) {
	if len(q) != ix.dim {
		return nil, fmt.Errorf("multicurves: query has %d dims, index has %d", len(q), ix.dim)
	}
	if k < 1 {
		return nil, errors.New("multicurves: k must be >= 1")
	}
	p := ix.params
	type treeOut struct {
		items []topk.Item
		err   error
	}
	outs := make([]treeOut, p.Tau)
	run := func(t int) {
		outs[t].items, outs[t].err = ix.searchCurve(t, q, k)
	}
	if p.Parallel && p.Tau > 1 {
		var wg sync.WaitGroup
		for t := 0; t < p.Tau; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				run(t)
			}(t)
		}
		wg.Wait()
	} else {
		for t := 0; t < p.Tau; t++ {
			run(t)
		}
	}
	best := topk.New(k)
	seen := make(map[uint64]struct{})
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		for _, it := range o.items {
			if _, dup := seen[it.ID]; dup {
				continue
			}
			seen[it.ID] = struct{}{}
			best.Push(it.ID, it.Dist)
		}
	}
	items := best.Items()
	res := make([]baselines.Result, len(items))
	for i, it := range items {
		res[i] = baselines.Result{ID: it.ID, Dist: math.Sqrt(it.Dist)}
	}
	return res, nil
}

// searchCurve walks outward from the query key position on curve t and
// returns the k best candidates among the α scanned, with squared
// distances.
func (ix *Index) searchCurve(t int, q []float32, k int) ([]topk.Item, error) {
	start := t * ix.eta
	coords := make([]uint32, ix.eta)
	ix.quants[t].Coords(coords, q[start:start+ix.eta])
	key := ix.curves[t].Encode(nil, coords)

	best := topk.New(k)
	vec := make([]float32, ix.dim)
	valLen := ix.trees[t].ValLen()
	// The top-k list orders by (Dist, ID), so a run's entries may go in
	// whichever direction the walk took them.
	err := ix.trees[t].WalkNearest(context.Background(), key, ix.params.Alpha, func(run []byte, _ bool) {
		for ; len(run) >= valLen; run = run[valLen:] {
			id := binary.BigEndian.Uint64(run[0:8])
			for d := range vec {
				vec[d] = math.Float32frombits(binary.LittleEndian.Uint32(run[8+4*d:]))
			}
			best.Push(id, vecmath.DistSq(q, vec))
		}
	})
	return best.Items(), err
}

// SizeBytes implements baselines.Index: τ full copies of the dataset
// plus tree overhead — Multicurves' scalability weakness.
func (ix *Index) SizeBytes() int64 {
	var total int64
	for _, pgr := range ix.pagers {
		if pgr != nil {
			total += pgr.FileSize()
		}
	}
	return total
}

// Close implements baselines.Index.
func (ix *Index) Close() error {
	var first error
	for _, pgr := range ix.pagers {
		if pgr != nil {
			if err := pgr.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
