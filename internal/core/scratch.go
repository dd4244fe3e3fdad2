package core

import (
	"context"
	"slices"
	"sync"

	"github.com/hd-index/hdindex/internal/topk"
)

// Per-search scratch reuse. A query allocates O(τ·α) intermediate state
// — fetched leaf entries, their reference-distance arrays, filter items,
// the candidate union — none of which outlives the call. Under serving
// load (internal/server) those allocations dominate the hot path, so
// both levels of scratch are pooled: one searchScratch per query, one
// treeScratch per searchTree invocation (trees may run concurrently
// within a query, so tree scratch cannot live inside searchScratch).

// searchScratch is the per-query state of Query.
type searchScratch struct {
	// The query's inputs, read by the helper goroutines its two split
	// phases recruit (treeWalks, refineRuns); cleared when the scratch
	// returns to the pool.
	ix   *Index
	ctx  context.Context
	q    []float32
	plan searchPlan

	qdist   []float64
	perTree [][]uint64
	// treeIDs holds one reusable slot buffer per tree: searchTree appends
	// its surviving slots into treeIDs[t][:0] and the (possibly regrown)
	// slice lands in perTree[t]; putSearchScratch reclaims the grown
	// capacity back into treeIDs for the next query.
	treeIDs [][]uint64
	fetched []int
	errs    []error
	// stamp is the candidate-dedup structure: a dense epoch-stamped
	// array indexed by slot. stamp[slot] == epoch means "seen this
	// query"; bumping epoch invalidates every entry at once, so unlike
	// a hash map there are no hash operations on the hot path and
	// nothing to clear between queries. It is bounded by
	// stampMaxObjects; stores beyond that (and slots a corrupted tree
	// hands out past the store's count) dedup through the seen map
	// instead, so memory stays O(min(n, cap)) rather than O(dataset).
	stamp      []uint32
	epoch      uint32
	seen       map[uint64]struct{}
	candidates []uint64
	// runs holds one refinement run each (cutRuns); run 0's list is the
	// query's own, which the other runs' lists merge into.
	runs  []refineRun
	items []topk.Item
}

// refineRun is one contiguous run of a query's sorted candidates,
// refined on its own store cursor into its own top-k list.
type refineRun struct {
	slots []uint64
	best  *topk.List
	vec   []float32 // the cursor's scratch for a record the pool cannot lend
	done  int       // distances evaluated
	err   error
}

// stampMaxObjects caps the dense dedup array at 8 MiB per pooled
// scratch. Every pooled scratch (≈ one per concurrent searcher) holds
// one, so the cap keeps dedup memory from scaling with the dataset;
// larger stores fall back to the map, which costs O(candidates).
const stampMaxObjects = 1 << 21

var searchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// getSearchScratch returns a scratch sized for this index's parameters
// and holding the query's inputs.
func (ix *Index) getSearchScratch(ctx context.Context, q []float32, plan searchPlan) *searchScratch {
	s := searchPool.Get().(*searchScratch)
	s.ix, s.ctx, s.q, s.plan = ix, ctx, q, plan
	p := ix.params
	if cap(s.qdist) < p.M {
		s.qdist = make([]float64, p.M)
	}
	s.qdist = s.qdist[:p.M]
	// Each slice is gated on its own capacity: allocator size-class
	// rounding can give the three different caps for the same make
	// length, so checking one cap for all three could reslice a
	// shorter sibling out of range.
	if cap(s.perTree) < p.Tau {
		s.perTree = make([][]uint64, p.Tau)
	}
	if cap(s.treeIDs) < p.Tau {
		s.treeIDs = make([][]uint64, p.Tau)
	}
	if cap(s.fetched) < p.Tau {
		s.fetched = make([]int, p.Tau)
	}
	if cap(s.errs) < p.Tau {
		s.errs = make([]error, p.Tau)
	}
	s.perTree = s.perTree[:p.Tau]
	s.treeIDs = s.treeIDs[:p.Tau]
	s.fetched = s.fetched[:p.Tau]
	s.errs = s.errs[:p.Tau]
	for t := 0; t < p.Tau; t++ {
		s.perTree[t], s.fetched[t], s.errs[t] = nil, 0, nil
	}
	s.resetDedup(ix.vectors.Count())
	s.candidates = s.candidates[:0]
	return s
}

// resetDedup prepares candidate dedup for a store of n objects: a dense
// stamp array up to stampMaxObjects, the map beyond. Growing the array
// allocates zeroed memory, so the epoch restarts at 1; on the (rare)
// uint32 wraparound the array is cleared once rather than colliding
// with stamps from 2^32 queries ago.
func (s *searchScratch) resetDedup(n uint64) {
	if len(s.seen) > 0 {
		clear(s.seen)
	}
	if n > stampMaxObjects {
		s.stamp = s.stamp[:0] // every id takes the map path
		return
	}
	if uint64(cap(s.stamp)) < n {
		s.stamp = make([]uint32, n)
		s.epoch = 0
	}
	s.stamp = s.stamp[:n]
	s.epoch++
	if s.epoch == 0 {
		// The whole capacity, not just [:n]: a smaller index may be
		// resliced back up within capacity by a later query, and stale
		// stamps beyond n would then collide with small post-wrap
		// epochs.
		clear(s.stamp[:cap(s.stamp)])
		s.epoch = 1
	}
}

// markSeen records slot for the current query, reporting whether it was
// already seen. Slots beyond the stamp's range — a store larger than
// stampMaxObjects, or a corrupted tree handing out slots the store never
// assigned — dedup through the map instead, never by growing the
// array (a garbage slot near 2^63 must not become a huge allocation);
// out-of-range slots still reach refinement, which surfaces ErrBadID.
func (s *searchScratch) markSeen(slot uint64) bool {
	if slot < uint64(len(s.stamp)) {
		if s.stamp[slot] == s.epoch {
			return true
		}
		s.stamp[slot] = s.epoch
		return false
	}
	if s.seen == nil {
		s.seen = make(map[uint64]struct{}, 64)
	}
	if _, ok := s.seen[slot]; ok {
		return true
	}
	s.seen[slot] = struct{}{}
	return false
}

// cutRuns cuts the sorted candidates into n contiguous runs of near-equal
// length, each with an empty top-k list for k and a vector buffer of the
// index's dimensionality. The pooled lists are reallocated only when k
// changes between queries.
func (s *searchScratch) cutRuns(candidates []uint64, n, k int) {
	s.runs = slices.Grow(s.runs[:0], n)[:n]
	for i := range s.runs {
		r := &s.runs[i]
		r.slots = candidates[i*len(candidates)/n : (i+1)*len(candidates)/n]
		if r.best == nil || r.best.K() != k {
			r.best = topk.New(k)
		} else {
			r.best.Reset()
		}
		if cap(r.vec) < s.ix.nu {
			r.vec = make([]float32, s.ix.nu)
		}
		r.vec = r.vec[:s.ix.nu]
		r.done, r.err = 0, nil
	}
}

func putSearchScratch(s *searchScratch) {
	s.ix, s.ctx, s.q = nil, nil, nil
	// Reclaim the per-tree id buffers grown inside searchTree so their
	// capacity carries over to the next query.
	for t, ids := range s.perTree {
		if ids != nil {
			s.treeIDs[t] = ids[:0]
		}
	}
	searchPool.Put(s)
}

// treeScratch is the per-tree state of searchTree: the Hilbert key, the
// α fetched entries' slots and reference distances (one flat arena), and
// the filter item slices.
type treeScratch struct {
	coords []uint32
	key    []byte
	ids    []uint64
	arena  []float32
	tri    []topk.Item
	pto    []topk.Item
}

var treePool = sync.Pool{New: func() any { return new(treeScratch) }}

func (ix *Index) getTreeScratch() *treeScratch {
	s := treePool.Get().(*treeScratch)
	if cap(s.coords) < ix.eta {
		s.coords = make([]uint32, ix.eta)
	}
	s.coords = s.coords[:ix.eta]
	return s
}

func putTreeScratch(s *treeScratch) { treePool.Put(s) }
