package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/hd-index/hdindex/internal/fanout"
	"github.com/hd-index/hdindex/internal/pager"
	"github.com/hd-index/hdindex/internal/radix"
	"github.com/hd-index/hdindex/internal/rdbtree"
	"github.com/hd-index/hdindex/internal/refsel"
	"github.com/hd-index/hdindex/internal/vecmath"
	"github.com/hd-index/hdindex/internal/vecstore"
	"github.com/hd-index/hdindex/internal/wal"
)

// BuildStats records what one Build spent and where. The four phase
// timers cover the construction pipeline of Algorithm 1; Encode, Sort
// and BulkLoad are summed across the τ trees, so with Tau trees
// building concurrently they can exceed wall-clock time — TotalMS is
// the wall-clock figure. Allocs and PeakHeapBytes come from
// runtime.MemStats deltas sampled at phase boundaries, so PeakHeapBytes
// is a lower bound on the true peak.
type BuildStats struct {
	RefDistsMS float64 `json:"refdists_ms"`
	EncodeMS   float64 `json:"encode_ms"`
	SortMS     float64 `json:"sort_ms"`
	BulkLoadMS float64 `json:"bulkload_ms"`
	TotalMS    float64 `json:"total_ms"`
	// Allocs is the number of heap allocations the build performed
	// (runtime.MemStats.Mallocs delta; includes allocations by
	// concurrent goroutines of the same process).
	Allocs uint64 `json:"allocs"`
	// PeakHeapBytes is the largest HeapAlloc observed at a phase
	// boundary during the build.
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
}

// Add accumulates other's phase and total times into s and takes the
// max of the peaks. Allocs is deliberately NOT summed: each build's
// Allocs is a process-wide runtime.MemStats delta over its own window,
// so summing overlapping windows (concurrent shard builds) would count
// every allocation once per concurrent builder — the sharded layout
// measures one window around the whole fan-out instead (MemProbe).
func (s *BuildStats) Add(other BuildStats) {
	s.RefDistsMS += other.RefDistsMS
	s.EncodeMS += other.EncodeMS
	s.SortMS += other.SortMS
	s.BulkLoadMS += other.BulkLoadMS
	s.TotalMS += other.TotalMS
	if other.PeakHeapBytes > s.PeakHeapBytes {
		s.PeakHeapBytes = other.PeakHeapBytes
	}
}

// phaseAccum sums per-tree phase durations without locks; trees build
// concurrently.
type phaseAccum struct {
	encodeNS, sortNS, bulkNS atomic.Int64
}

// MemProbe measures process-wide allocation counters across a window:
// Sample records the start on first call and tracks the peak heap seen,
// Finish returns the Mallocs delta and the peak. Because the counters
// are process-wide, windows must not be summed when they can overlap —
// the sharded build opens ONE probe around its whole shard fan-out for
// exactly that reason.
type MemProbe struct {
	started      bool
	startMallocs uint64
	peakHeap     uint64
}

// Sample records the window start on first call and updates the
// observed peak heap on every call.
func (m *MemProbe) Sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if !m.started {
		m.started = true
		m.startMallocs = ms.Mallocs
	}
	if ms.HeapAlloc > m.peakHeap {
		m.peakHeap = ms.HeapAlloc
	}
}

// Finish closes the window and returns the allocation count and the
// largest HeapAlloc observed at any Sample or Finish call.
func (m *MemProbe) Finish() (allocs, peak uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > m.peakHeap {
		m.peakHeap = ms.HeapAlloc
	}
	return ms.Mallocs - m.startMallocs, m.peakHeap
}

// sssFraction is f of §3.4: SSS admits a reference only when it lies at
// least f × the estimated maximum distance from those already chosen.
const sssFraction = 0.3

// Build constructs an HD-Index over vectors in directory dir
// (Algorithm 1). The directory is created; existing index files in it
// are overwritten.
func Build(dir string, vectors [][]float32, p Params) (*Index, error) {
	return BuildContext(context.Background(), dir, vectors, p)
}

// BuildContext is Build honouring ctx: construction checks for
// cancellation between work chunks and returns ctx's error promptly. A
// cancelled build leaves no meta.json (the layout's commit point), so
// Open rejects the directory instead of serving a half-built index.
func BuildContext(ctx context.Context, dir string, vectors [][]float32, p Params) (*Index, error) {
	return build(ctx, dir, vectors, p, layoutTree0)
}

// storeLayout is how build writes vectors.pg. Build always asks for
// layoutTree0; the other two are the earlier layouts, kept for the
// layout-equivalence tests (the oracles a Build must answer exactly
// like) and BenchmarkRefinePages.
type storeLayout int

const (
	// layoutTree0: records in tree 0's key order with ids.pg to translate
	// (slots.go), as byte records when every component round-trips.
	layoutTree0 storeLayout = iota
	// layoutTree0Float: the same order, float32 records whatever the data.
	layoutTree0Float
	// layoutIDOrder: float32 records in id order and no ids.pg — the
	// layout before the slot space.
	layoutIDOrder
)

// build is BuildContext's body. It counts as one unit of work: the
// reference distances, the Hilbert keys and the trees are independent
// parts that idle CPUs join (fanout), and the bytes written are the same
// however many do.
func build(ctx context.Context, dir string, vectors [][]float32, p Params, layout storeLayout) (*Index, error) {
	if len(vectors) == 0 {
		return nil, errors.New("core: empty dataset")
	}
	if uint64(len(vectors)) > slotSpace {
		return nil, fmt.Errorf("%w: %d vectors, %d slots", rdbtree.ErrIDRange, len(vectors), slotSpace)
	}
	nu := len(vectors[0])
	p.SetDefaults(nu, len(vectors))
	if err := p.Validate(nu); err != nil {
		return nil, err
	}
	if p.M > len(vectors) {
		return nil, fmt.Errorf("core: m = %d exceeds dataset size %d", p.M, len(vectors))
	}
	for i, v := range vectors {
		for d, x := range v {
			if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
				return nil, fmt.Errorf("%w: vector %d: component %d is %v", ErrBadVector, i, d, x)
			}
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: mkdir %s: %w", dir, err)
	}
	if err := RemoveIndexFiles(dir); err != nil {
		return nil, err
	}

	ctx, leave := fanout.Enter(ctx)
	defer leave()
	buildStart := time.Now()
	var probe MemProbe
	probe.Sample()

	rng := rand.New(rand.NewSource(p.Seed))

	// Algorithm 1 line 1: choose reference objects.
	var sel *refsel.Result
	var err error
	switch p.RefSelection {
	case RefRandom:
		sel, err = refsel.Random(vectors, p.M, rng)
	case RefSSSDyn:
		sel, err = refsel.SSSDyn(vectors, p.M, sssFraction, 64, rng)
	default:
		sel, err = refsel.SSS(vectors, p.M, sssFraction, rng)
	}
	if err != nil {
		return nil, err
	}
	refs := make([][]float32, p.M)
	for i, v := range sel.Vectors {
		refs[i] = vecmath.Copy(v)
	}

	// Algorithm 1 line 2: distances of every object to every reference,
	// written into one flat n×m matrix (row i at rdist[i*m:(i+1)*m]) —
	// a single allocation the trees' bulk loads later stream from
	// directly.
	t0 := time.Now()
	rdist, err := computeRefDists(ctx, vectors, refs)
	if err != nil {
		return nil, err
	}
	// Insert's rule on every distance the trees will store. Vectors far
	// enough out to break it are the ones reference selection favours,
	// so of the pair the error names the one farther from the origin.
	for c, d := range rdist {
		if !(d <= math.MaxFloat32) {
			i, r, origin := c/p.M, c%p.M, make([]float32, nu)
			bad := i
			if vecmath.DistSq(refs[r], origin) > vecmath.DistSq(vectors[i], origin) {
				bad = sel.Indices[r]
			}
			return nil, fmt.Errorf("%w: vector %d: the distance from vector %d to reference %d is %v", ErrBadVector, bad, i, r, d)
		}
	}
	var stats BuildStats
	stats.RefDistsMS = msSince(t0)
	probe.Sample()

	lo, hi := vecmath.MinMax(vectors, nu)

	ix, err := newIndex(dir, metaJSON{Params: p, Nu: nu, Refs: refs, Lo: lo, Hi: hi})
	if err != nil {
		return nil, err
	}

	// Algorithm 1 lines 5-10: one RDB-tree per partition. Tree 0 is
	// sorted before the others start: its key order is the store order,
	// and every tree's leaves point at slots.
	var phases phaseAccum
	keys0, perm0, err := ix.sortTree(ctx, 0, vectors, &phases)
	if err != nil {
		ix.Close()
		return nil, err
	}
	stored := vectors   // the vectors in slot order
	var slotOf []uint64 // id → slot; nil is the identity
	if layout != layoutIDOrder {
		stored, slotOf = make([][]float32, len(vectors)), make([]uint64, len(vectors))
		for slot, id := range perm0 {
			stored[slot], slotOf[id] = vectors[id], uint64(slot)
		}
		sp, err := ix.writeFile(filepath.Join(dir, slotFile), func(pgr *pager.Pager) error {
			return createSlotMap(pgr, perm0, slotOf)
		})
		if err == nil {
			if ix.slots, err = openSlotMap(sp, uint64(len(perm0))); err != nil {
				sp.Close()
			}
		}
		if err != nil {
			ix.Close()
			return nil, err
		}
	}

	ix.trees, err = ix.writeTrees(ctx, ix.gen, vectors, slotOf, rdist, keys0, perm0, &phases)
	if err != nil {
		ix.Close()
		return nil, err
	}
	stats.EncodeMS = msOf(phases.encodeNS.Load())
	stats.SortMS = msOf(phases.sortNS.Load())
	stats.BulkLoadMS = msOf(phases.bulkNS.Load())
	probe.Sample()

	if err := ctx.Err(); err != nil {
		ix.Close()
		return nil, err
	}

	// The pointer target: raw vectors in a paged store, record s the
	// vector of slot s — ν bytes each when the data allows it.
	vp, err := ix.openPager(filepath.Join(dir, "vectors.pg"), pager.Options{Create: true})
	if err != nil {
		ix.Close()
		return nil, err
	}
	vs, err := vecstore.Create(vp, nu)
	if err == nil {
		if layout == layoutTree0 {
			err = vs.BuildBase(stored)
		} else {
			err = vs.BuildFrom(stored)
		}
	}
	if err == nil {
		err = vs.Flush()
	}
	if err == nil {
		err = vp.Sync()
	}
	if err != nil {
		vp.Close()
		ix.Close()
		return nil, err
	}
	ix.vectors = vs

	// Every file it names is fsynced, so a power loss cannot leave a
	// meta.json over pages that never reached the disk.
	if err := ix.writeMeta(vs.Count(), ix.gen, nil); err != nil {
		ix.Close()
		return nil, err
	}
	// The meta commit makes the build generation-0-complete; the fresh
	// (empty) WAL and its compactor make the index live for ingest.
	w, err := wal.Open(filepath.Join(dir, walFile), ix.walOptions(), nil)
	if err != nil {
		ix.Close()
		return nil, err
	}
	ix.wal = w
	ix.startCompactor()
	stats.TotalMS = msSince(buildStart)
	stats.Allocs, stats.PeakHeapBytes = probe.Finish()
	ix.buildStats = &stats
	return ix, nil
}

// buildChunk is how many vectors one part of the chunked build phases
// (reference distances, Hilbert keys) covers: large enough that handing
// a part out is noise, small enough that τ = 8 trees over a 10k-vector
// partition still split into enough parts to occupy idle CPUs.
const buildChunk = 512

// eachChunk runs fn over the rows [lo, hi) of each buildChunk part of
// [0, n), in parts that idle CPUs join.
func eachChunk(ctx context.Context, n int, fn func(lo, hi int)) error {
	return fanout.Each(ctx, (n+buildChunk-1)/buildChunk, func(_ context.Context, c int) error {
		fn(c*buildChunk, min(n, (c+1)*buildChunk))
		return nil
	})
}

// writeTrees is the tree writer, shared by Build and Open's rebuild: the
// τ trees of generation gen over the rows vectors (row i's reference
// distances at rdist[i·m:], its slot slotOf[i], nil when the row number
// is the slot). The trees are independent parts: idle CPUs write some
// beside this goroutine, each tree's file the same whichever writes it.
// keys0 and perm0 are tree 0's sortTree output when the caller has it,
// else nil. The trees written are returned with any error, to drop.
func (ix *Index) writeTrees(ctx context.Context, gen uint64, vectors [][]float32, slotOf []uint64, rdist []float32, keys0 []byte, perm0 []uint32, phases *phaseAccum) ([]*rdbtree.Tree, error) {
	trees := make([]*rdbtree.Tree, ix.params.Tau)
	err := fanout.Each(ctx, len(trees), func(ctx context.Context, t int) (err error) {
		keys, perm := keys0, perm0
		if t > 0 || keys == nil {
			if keys, perm, err = ix.sortTree(ctx, t, vectors, phases); err != nil {
				return err
			}
		}
		t0 := time.Now()
		trees[t], err = ix.writeTree(ix.treeGenPath(t, gen), keys, perm, slotOf, rdist, rdbtree.Scale{})
		phases.bulkNS.Add(int64(time.Since(t0)))
		return err
	})
	return trees, err
}

// sortTree runs the tree writer's first two steps for partition t,
// timing each: the stored keys in row (= id) order and the rows in
// ascending (key, row) order. No per-record allocation anywhere on
// the path.
func (ix *Index) sortTree(ctx context.Context, t int, vectors [][]float32, phases *phaseAccum) ([]byte, []uint32, error) {
	t0 := time.Now()
	keys, err := ix.encodeKeys(ctx, t, vectors)
	if err != nil {
		return nil, nil, err
	}
	phases.encodeNS.Add(int64(time.Since(t0)))

	t0 = time.Now()
	perm := sortedPerm(keys, ix.treeConfig().StoredKeyLen())
	phases.sortNS.Add(int64(time.Since(t0)))
	return keys, perm, ctx.Err()
}

// encodeKeys is the tree writer's first step, shared by Build and
// Compact: partition t's stored keys (ix.curve's, w bytes each) as a
// flat n×w arena in row order, in buildChunk parts that idle CPUs join.
// Compaction's goroutine is not counted as busy, so there only CPUs no
// query holds help. Keys land at fixed offsets, so scheduling cannot
// change the output.
func (ix *Index) encodeKeys(ctx context.Context, t int, vectors [][]float32) ([]byte, error) {
	q, start, w := ix.quants[t], t*ix.eta, ix.treeConfig().StoredKeyLen()
	keys := make([]byte, len(vectors)*w)
	err := eachChunk(ctx, len(vectors), func(lo, hi int) {
		coords := make([]uint32, (hi-lo)*ix.eta)
		for i := lo; i < hi; i++ {
			q.Coords(coords[(i-lo)*ix.eta:(i-lo+1)*ix.eta], vectors[i][start:start+ix.eta])
		}
		ix.curve.EncodeAll(keys[lo*w:hi*w], coords, ix.eta)
	})
	return keys, err
}

// identityPerm returns the row numbers 0..n-1 in order.
func identityPerm(n int) []uint32 {
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	return perm
}

// sortedPerm is the tree writer's second step: the row numbers of the
// w-byte key arena in ascending key order. A stable MSD radix sort over
// the fixed-width keys moves 4-byte row numbers instead of the 32-byte
// entries a leaf holds and never calls a comparator; ties keep row (=
// id) order, which the determinism tests pin.
func sortedPerm(keys []byte, w int) []uint32 {
	perm := identityPerm(len(keys) / w)
	radix.Sort(keys, w, perm)
	return perm
}

// writeTree is the tree writer's last step: a fresh tree file at path,
// bulk-loaded from the flat arenas (rdbtree.BulkLoadArena's shapes; ids
// holds each row's slot, nil when the row number is the slot; prev is
// the scale of the tree rows were decoded from, zero when none were) by
// writeFile, and opened to serve.
func (ix *Index) writeTree(path string, keys []byte, perm []uint32, ids []uint64, rdist []float32, prev rdbtree.Scale) (*rdbtree.Tree, error) {
	pgr, err := ix.writeFile(path, func(pgr *pager.Pager) error {
		tree, err := rdbtree.Create(pgr, ix.treeConfig())
		if err == nil {
			err = tree.BulkLoadArena(keys, perm, ids, rdist, prev)
		}
		if err == nil {
			err = tree.Flush()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	tree, err := rdbtree.Open(pgr)
	if err != nil {
		pgr.Close()
		return nil, err
	}
	return tree, nil
}

// treeConfig is the geometry of the index's RDB-trees.
func (ix *Index) treeConfig() rdbtree.Config {
	return rdbtree.Config{Eta: ix.eta, Omega: ix.params.Omega, M: ix.params.M}
}

// writeFile makes a write-once index file, a tree or ids.pg: write fills
// a fresh file at path, each page written once, through a pager that
// reads nothing; the file is fsynced — fully durable before a meta
// commit (Build's or a compaction's) references it — closed, and
// reopened read-only on ix.cache to serve.
func (ix *Index) writeFile(path string, write func(*pager.Pager) error) (*pager.Pager, error) {
	pgr, err := pager.Open(path, pager.Options{Create: true, PageSize: ix.params.PageSize})
	if err != nil {
		return nil, err
	}
	err = write(pgr)
	if err == nil {
		err = pgr.Sync()
	}
	if e := pgr.Close(); err == nil {
		err = e
	}
	if err != nil {
		return nil, err
	}
	return ix.openPager(path, pager.Options{ReadOnly: true})
}

// computeRefDists fills the flat n×m reference-distance matrix in
// buildChunk parts that idle CPUs join. Rows are written at fixed
// offsets, so the result is independent of scheduling.
func computeRefDists(ctx context.Context, vectors, refs [][]float32) ([]float32, error) {
	n, m := len(vectors), len(refs)
	rdist := make([]float32, n*m)
	err := eachChunk(ctx, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := rdist[i*m : (i+1)*m]
			for r, rv := range refs {
				row[r] = float32(vecmath.Dist(vectors[i], rv))
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return rdist, nil
}

func msSince(t time.Time) float64 { return msOf(int64(time.Since(t))) }

func msOf(ns int64) float64 { return float64(ns) / 1e6 }

// BuildStats returns the construction cost breakdown of a freshly
// built index, or nil when the index was Opened from disk.
func (ix *Index) BuildStats() *BuildStats { return ix.buildStats }
