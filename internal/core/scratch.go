package core

import (
	"context"
	"math/bits"
	"slices"
	"sync"

	"github.com/hd-index/hdindex/internal/topk"
)

// Per-search scratch reuse. A query allocates O(τ·α) intermediate state
// — fetched leaf entries' slots and bounds, the filter's survivors, the
// candidate union — none of which outlives the call. Under serving load
// (internal/server) those allocations dominate the hot path, so both
// levels of scratch are pooled: one searchScratch per query, one
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
	// bitmap is the candidate union's dedup, bit s%64 of word s/64 for
	// slot s; union clears every word it sets, so it is all zero between
	// queries. It covers slots up to bitmapMaxSlots; slots beyond (a larger
	// store, or a corrupt tree's garbage slot below 2^32 — a leaf slot is
	// 32 bits, rdbtree.Slot — which must not become a huge allocation)
	// dedup through the seen map.
	bitmap     []uint64
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

// bitmapMaxSlots caps the dedup bitmap at 256 KiB per pooled scratch
// (≈ one per concurrent searcher), so dedup memory does not scale with
// the dataset; slots beyond it take the map, which costs O(candidates).
const bitmapMaxSlots = 1 << 21

var searchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// getSearchScratch returns a scratch sized for this index's parameters
// and holding the query's inputs.
func (ix *Index) getSearchScratch(ctx context.Context, q []float32, plan searchPlan) *searchScratch {
	s := searchPool.Get().(*searchScratch)
	s.ix, s.ctx, s.q, s.plan = ix, ctx, q, plan
	p := ix.params
	s.qdist = slices.Grow(s.qdist[:0], p.M)[:p.M]
	// treeIDs keeps the buffers putSearchScratch reclaimed into it; the
	// rest start each query empty.
	s.treeIDs = slices.Grow(s.treeIDs[:0], p.Tau)[:p.Tau]
	s.perTree = slices.Grow(s.perTree[:0], p.Tau)[:p.Tau]
	s.fetched = slices.Grow(s.fetched[:0], p.Tau)[:p.Tau]
	s.errs = slices.Grow(s.errs[:0], p.Tau)[:p.Tau]
	clear(s.perTree)
	clear(s.fetched)
	clear(s.errs)
	s.sizeBitmap(ix.vectors.Count())
	return s
}

// sizeBitmap fits the dedup bitmap to a store of n slots, up to
// bitmapMaxSlots. Every word is zero between queries, the words past the
// old length included, so a reslice needs no clearing.
func (s *searchScratch) sizeBitmap(n uint64) {
	words := int(min(n, bitmapMaxSlots)+63) / 64
	s.bitmap = slices.Grow(s.bitmap[:0], words)[:words]
}

// union returns the distinct slots of the τ trees' survivors in
// ascending order, at most maxCandidates of them when that is positive.
// Marking a slot's bit dedups it; the marks stop at the κ cap, keeping
// the first maxCandidates distinct slots in tree order, each tree's in
// filter rank order — so the cap drops the later trees' weakest-ranked
// survivors. Reading the touched words back, lowest bit first, emits
// the union sorted and clears them; the map's slots, all larger, follow.
func (s *searchScratch) union(maxCandidates int) []uint64 {
	lo, hi := len(s.bitmap), -1 // the touched words
	kappa := 0
mark:
	for _, slots := range s.perTree {
		for _, slot := range slots {
			if w := slot >> 6; w < uint64(len(s.bitmap)) {
				old := s.bitmap[w]
				s.bitmap[w] = old | 1<<(slot&63)
				kappa += int(^old >> (slot & 63) & 1)
				lo, hi = min(lo, int(w)), max(hi, int(w))
			} else if _, ok := s.seen[slot]; !ok {
				if s.seen == nil {
					s.seen = make(map[uint64]struct{}, 64)
				}
				s.seen[slot] = struct{}{}
				kappa++
			}
			if maxCandidates > 0 && kappa == maxCandidates {
				break mark
			}
		}
	}
	out := s.candidates[:0]
	for w := lo; w <= hi; w++ {
		for word := s.bitmap[w]; word != 0; word &= word - 1 {
			out = append(out, uint64(w)<<6|uint64(bits.TrailingZeros64(word)))
		}
		s.bitmap[w] = 0
	}
	if len(s.seen) > 0 {
		n := len(out)
		for slot := range s.seen {
			out = append(out, slot)
		}
		slices.Sort(out[n:])
		clear(s.seen)
	}
	s.candidates = out // keep the grown buffer for reuse
	return out
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
		r.vec = slices.Grow(r.vec[:0], s.ix.nu)[:s.ix.nu]
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
// query's reference distances in the tree's code units, the α fetched
// entries' slots and triangular bounds by walk position, their distance
// codes (one flat arena, filled only for the Ptolemaic stage), and the
// two filter stages' survivors and selection scratch.
type treeScratch struct {
	coords []uint32
	key    []byte
	qs     []float64
	ids    []uint64
	tri    []uint64
	arena  []uint16
	pto    []uint64
	keep   []uint32
	sub    []uint32
	sel    topk.Selector
}

var treePool = sync.Pool{New: func() any { return new(treeScratch) }}

func (ix *Index) getTreeScratch() *treeScratch {
	s := treePool.Get().(*treeScratch)
	s.coords = slices.Grow(s.coords[:0], ix.eta)[:ix.eta]
	s.qs = slices.Grow(s.qs[:0], ix.params.M)[:ix.params.M]
	return s
}

func putTreeScratch(s *treeScratch) { treePool.Put(s) }
