package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"github.com/hd-index/hdindex/internal/fanout"
	"github.com/hd-index/hdindex/internal/rdbtree"
	"github.com/hd-index/hdindex/internal/telemetry"
	"github.com/hd-index/hdindex/internal/topk"
	"github.com/hd-index/hdindex/internal/vecmath"
)

// Result is one returned neighbour, as the search endpoints serve it.
// Dist stays a float64 end to end: Go's JSON encoding of a float64
// round-trips exactly, which is what makes a cluster's merged answer
// bit-identical to the in-process sharded index.
type Result struct {
	ID   uint64  `json:"id"`
	Dist float64 `json:"dist"`
}

// QueryStats reports the work one query did, plus the effective filter
// cascade it ran with — with per-query overrides (SearchOptions) the
// knobs are no longer implied by the built Params, so the stats echo
// them back. It is also the stats block of the search endpoints: its
// keys and field order are the wire's.
type QueryStats struct {
	Candidates  int `json:"candidates"`   // κ = |C|, distinct candidates (before the deleted-mark skip)
	TreeEntries int `json:"tree_entries"` // total α entries fetched across trees
	// PageReads is the delta of the index-wide pager counters across
	// this query: exact when queries run one at a time (the paper's
	// measurement protocol), best-effort under concurrent searches,
	// whose reads land in whichever windows overlap them.
	PageReads uint64 `json:"page_reads"`
	// PageHits/PageMisses split the buffer-pool traffic over the same
	// window (same best-effort caveat), exposing the cache behaviour of
	// the page-ordered candidate fetch.
	PageHits   uint64 `json:"page_hits"`
	PageMisses uint64 `json:"page_misses"`
	// ExactDistances counts candidate distance evaluations. Early
	// abandonment may cut an evaluation short once its partial sum
	// clears the current top-k bound, but the candidate still counts:
	// the figure tracks the paper's κ, not FLOPs.
	ExactDistances int `json:"exact_distances"`
	// MemtableScanned counts the acknowledged-but-uncompacted inserts
	// this query brute-forced (exact, early-abandoning distances) and
	// merged into the top-k — the live-ingest visibility path. 0 when
	// the memtable is empty, which is the steady state between write
	// bursts.
	MemtableScanned int `json:"memtable_scanned"`
	// Alpha/Beta/Gamma/Ptolemaic are the resolved cascade this query
	// ran with: the built defaults unless overridden per query. On a
	// sharded layout every shard runs the same cascade, so the
	// aggregated stats carry it unchanged.
	Alpha     int  `json:"alpha"`
	Beta      int  `json:"beta"`
	Gamma     int  `json:"gamma"`
	Ptolemaic bool `json:"ptolemaic"`
	// Degraded reports that overload pressure switched this query to
	// the fast preset and that preset lowered a knob. Only the serving
	// layer sets it, like Preset: false when the request pinned its own
	// α or γ, named a preset, or fast could lower nothing.
	Degraded bool `json:"degraded,omitempty"`
	// Preset echoes the quality preset the serving layer resolved for
	// the request — the request's own, its tenant tier's, or the server
	// default ("auto" when the tuner or degradation decided). Only the
	// serving layer sets it; a query leaves it empty.
	Preset Preset `json:"preset,omitempty"`
	// Phases attributes the query's wall time to its pipeline stages
	// (tree walk, candidate sort, refinement, memtable scan, top-k
	// merge), in nanoseconds; the wire carries them in microseconds,
	// keyed by phase name, and omits them when every phase is 0. A
	// sharded query sums the per-shard phase times, so the total can
	// exceed wall time when shards run concurrently — it measures work,
	// not latency.
	Phases telemetry.PhaseNS `json:"phase_us,omitzero"`
}

// Add accumulates other's work counters into s (a sharded query sums
// its shards, the slow-query log a batch). The cascade echo is not a
// sum: s adopts other's only while it has none (a resolved cascade has
// Alpha >= 1), so a fold echoes the first stats block added — every
// block of one fold ran the same cascade.
func (s *QueryStats) Add(other QueryStats) {
	if s.Alpha == 0 {
		s.Alpha, s.Beta, s.Gamma = other.Alpha, other.Beta, other.Gamma
		s.Ptolemaic, s.Degraded, s.Preset = other.Ptolemaic, other.Degraded, other.Preset
	}
	s.Candidates += other.Candidates
	s.TreeEntries += other.TreeEntries
	s.PageReads += other.PageReads
	s.PageHits += other.PageHits
	s.PageMisses += other.PageMisses
	s.ExactDistances += other.ExactDistances
	s.MemtableScanned += other.MemtableScanned
	s.Phases.Add(other.Phases)
}

// refineCheckEvery is how many exact refinements happen between context
// checks: frequent enough that a cancelled query stops within a few page
// reads, rare enough to keep the check off the profile.
const refineCheckEvery = 64

// minRefineRun is the fewest candidates a refinement run is cut to.
// Below it a helper's start and a run's own warm-up — its bound is +∞
// until it holds k items — cost more than the distances it takes over.
const minRefineRun = 256

// minWalkSplit is the fewest leaf entries (τ·α) a query's tree walks
// fetch before a helper may take some of them. Below it waking the
// helper costs more than the walks it takes over: on BenchmarkSearch's
// index (τ = 4) on 2 vCPUs a split query is 1.07× slower at α = 512 and
// 0.83× the time at α = 1 024.
const minWalkSplit = 4096

// treeWalks and refineRuns are a query's two split phases as
// fanout.Jobs over its scratch: part t walks tree t, part i refines run
// i of the sorted candidates. Parts write only their own elements of
// the scratch, and Spread returns after every part has.
type (
	treeWalks  searchScratch
	refineRuns searchScratch
)

func (w *treeWalks) Do(t int) {
	s := (*searchScratch)(w)
	s.perTree[t], s.fetched[t], s.errs[t] = s.ix.searchTree(s.ctx, t, s.q, s.qdist, s.treeIDs[t][:0], s.plan)
}

func (w *refineRuns) Do(i int) {
	s := (*searchScratch)(w)
	r := &s.runs[i]
	slots := r.slots
	r.done, r.err = s.ix.exactPass(s.ctx, s.q, r.best, r.vec, len(slots), func(j int) (uint64, []float32) {
		return slots[j], nil
	})
}

// Query answers a kANN query: Algorithm 2 with per-query
// filter-cascade overrides, work counters, and cooperative
// cancellation. Options are resolved against the built Params and
// validated once, before any tree is touched; the zero SearchOptions
// runs exactly the built defaults. The context is checked per tree and
// every refineCheckEvery candidate refinements. The tree walks and the
// refinement take helper goroutines only onto idle CPUs (fanout.Spread),
// and the answer and every work counter are the same however many join.
func (ix *Index) Query(ctx context.Context, q []float32, k int, o SearchOptions) ([]Result, *QueryStats, error) {
	if len(q) != ix.nu {
		return nil, nil, fmt.Errorf("%w: query has %d dims, index has %d", ErrDimMismatch, len(q), ix.nu)
	}
	plan, err := ix.params.planFor(k, o)
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	// Telemetry: the whole-query histogram times from here (including
	// any wait for the index lock); the span attributes post-lock time
	// to pipeline phases.
	telStart := time.Now()

	// Searches run concurrently with each other but not with writers
	// (the compaction commit swaps the trees and grows the vector store;
	// Insert grows the memtable).
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ctx, leave := fanout.Enter(ctx)
	defer leave()
	span := telemetry.StartSpan()

	ioBefore := ix.IOStats()
	sc := ix.getSearchScratch(ctx, q, plan)
	defer putSearchScratch(sc)

	// Distances from q to the m reference objects (lines handled before
	// the loop in Algorithm 2; O(m·ν)).
	for r, rv := range ix.refs {
		sc.qdist[r] = vecmath.Dist(q, rv)
	}

	// Per-tree candidate retrieval and filtering (lines 1-10), one tree
	// per part: on an idle CPU a helper walks trees beside this
	// goroutine, once the walks are long enough to repay its start. The
	// first error in tree order is the query's.
	walks := (*treeWalks)(sc)
	if ix.params.Tau*plan.alpha >= minWalkSplit {
		fanout.Spread(ix.params.Tau, walks)
	} else {
		for t := range ix.params.Tau {
			walks.Do(t)
		}
	}
	for _, err := range sc.errs {
		if err != nil {
			return nil, nil, err
		}
	}
	span.Mark(telemetry.PhaseTreeWalk)

	// Union of candidates (line 11): γ <= κ <= τ·γ distinct slots, in
	// ascending order for the page-ordered fetch. A candidate is a slot
	// from here to the top-k push. Vector records are packed in slot
	// order, so ascending slots visit their owning pages in order, and
	// Build laid the slots out in tree-0 key order, so candidates that
	// were neighbours on that curve are neighbours here: the refinement
	// step pins each page once for the whole run of candidates on it. The
	// top-k list orders by (Dist, ID) — id, not slot — so the retained
	// set depends on neither the fetch order nor the layout.
	candidates := sc.union(plan.maxCandidates)
	span.Mark(telemetry.PhaseCandidateSort)

	// Exact refinement (lines 12-15) over the stored candidates, in
	// contiguous runs when a CPU is idle: each run keeps its own top-k,
	// and since a run's k-th bound is never tighter than the whole
	// query's, early abandonment inside a run drops nothing the query
	// would keep. Merging the runs' lists by (Dist, ID) is then exact,
	// ties included. The first error in slot order is the query's.
	runs := max(1, min(len(candidates)/minRefineRun, 1+fanout.Idle()))
	sc.cutRuns(candidates, runs, k)
	fanout.Spread(runs, (*refineRuns)(sc))
	best := sc.runs[0].best
	refined := 0
	for i := range sc.runs {
		r := &sc.runs[i]
		if r.err != nil {
			return nil, nil, r.err
		}
		refined += r.done
		if i > 0 {
			sc.items = r.best.ItemsInto(sc.items)
			for _, it := range sc.items {
				best.Push(it.ID, it.Dist)
			}
		}
	}
	span.Mark(telemetry.PhaseRefine)

	// Memtable merge: acknowledged inserts not yet compacted into the
	// trees are brute-forced through the same exact-distance step into
	// the same top-k heap — no tree I/O, and the (Dist, ID) ordering makes
	// the merge order-independent. A memtable entry's slot is its id. Still under the read lock, so the
	// memtable/vector-store boundary is the same one the tree candidates
	// saw.
	memScanned := 0
	if len(ix.mem) > 0 {
		base := ix.vectors.Count()
		memScanned, err = ix.exactPass(ctx, q, best, nil, len(ix.mem), func(i int) (uint64, []float32) {
			return base + uint64(i), ix.mem[i]
		})
		if err != nil {
			return nil, nil, err
		}
		span.Mark(telemetry.PhaseMemtableScan)
	}

	items := best.ItemsInto(sc.items)
	sc.items = items
	out := make([]Result, len(items))
	for i, it := range items {
		out[i] = Result{ID: it.ID, Dist: math.Sqrt(it.Dist)}
	}
	ioAfter := ix.IOStats()
	stats := &QueryStats{
		Candidates:      len(candidates),
		ExactDistances:  refined, // deleted-skipped candidates do no work
		MemtableScanned: memScanned,
		PageReads:       ioAfter.Reads - ioBefore.Reads,
		PageHits:        ioAfter.Hits - ioBefore.Hits,
		PageMisses:      ioAfter.Misses - ioBefore.Misses,
		Alpha:           plan.alpha,
		Beta:            plan.beta,
		Gamma:           plan.gamma,
		Ptolemaic:       plan.ptolemaic,
	}
	for _, f := range sc.fetched {
		stats.TreeEntries += f
	}
	span.Mark(telemetry.PhaseTopKMerge)
	stats.Phases = span.NS
	ix.tel.ObserveQuery(time.Since(telStart), span.NS)
	return out, stats, nil
}

// exactPass is the one exact-distance step, run over n objects in
// ascending slot order: item(i) names the i-th slot and, for a memtable
// entry, its in-memory vector — nil means the store's cursor computes it
// out of the buffer pool, whatever the record's width, keeping a page
// pinned across the consecutive slots on it (scratch serves a record
// that does not sit in one page). Deleted objects (§3.6) are skipped
// before their page is touched — they stay in the trees but are never
// returned — and the accumulation is abandoned early once it exceeds the
// current k-th best. Only an object that makes it into the top-k has its
// slot translated to the id the list orders by. Returns how many
// distances were evaluated; ctx is checked every refineCheckEvery
// objects.
func (ix *Index) exactPass(ctx context.Context, q []float32, best *topk.List, scratch []float32, n int, item func(i int) (uint64, []float32)) (int, error) {
	cur := ix.vectors.Cursor()
	defer cur.Close()
	done := 0
	for i := 0; i < n; i++ {
		if i%refineCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return done, err
			}
		}
		slot, v := item(i)
		if ix.deleted.has(slot) {
			continue
		}
		bound := math.Inf(1)
		if b, ok := best.Bound(); ok {
			bound = b
		}
		var d float64
		var full bool
		if v != nil {
			d, full = vecmath.DistSqBound(q, v, bound)
		} else {
			var err error
			if d, full, err = cur.DistSqBound(slot, q, bound, scratch); err != nil {
				return done, err
			}
		}
		if full {
			id, err := ix.slots.id(slot)
			if err != nil {
				return done, err
			}
			best.Push(id, d)
		}
		done++
	}
	return done, nil
}

// searchTree performs Algorithm 2 lines 2-10 for one partition: Hilbert
// key, α nearest leaf entries, triangular filter, optional Ptolemaic
// filter, appending the surviving γ objects' slots into ids (a per-tree
// scratch buffer owned by the caller for the query's duration). The
// cascade sizes come from plan, not Params: per-query overrides land
// here without the index noticing.
func (ix *Index) searchTree(ctx context.Context, t int, q []float32, qdist []float64, ids []uint64, plan searchPlan) ([]uint64, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	ts := ix.getTreeScratch()
	defer putTreeScratch(ts)

	start := t * ix.eta
	ix.quants[t].Coords(ts.coords, q[start:start+ix.eta])
	ts.key = ix.curve.Encode(ts.key[:0], ts.coords)

	// α nearest leaf entries, each one's triangular lower bound (Eq. 5)
	// read off its pinned leaf page, from the query's reference distances
	// in the tree's code units. Walk position i — the filter's tie-break —
	// has object slot entryIDs[i], bound tri[i] and, when the Ptolemaic
	// stage will want them, distance codes arena[i*m:(i+1)*m].
	m := len(qdist)
	sc := ix.trees[t].Scale()
	for i, qd := range qdist {
		ts.qs[i] = qd / sc.S
	}
	entryIDs, tri, arena := ts.ids[:0], ts.tri[:0], ts.arena[:0]
	err := ix.trees[t].WalkNearest(ctx, ts.key, plan.alpha, func(run []uint16, descending bool) {
		tri, entryIDs = appendTriangular(tri, entryIDs, ts.qs, sc, run, descending)
		if plan.ptolemaic {
			arena = appendCodes(arena, run, m, descending)
		}
	})
	ts.arena, ts.ids, ts.tri = arena, entryIDs, tri // keep the grown buffers for reuse
	if err != nil {
		return nil, 0, err
	}
	fetched := len(entryIDs)

	// Keep the β (or γ, if Ptolemaic is off) smallest lower bounds, as
	// walk positions in ascending order.
	narrowTo := plan.gamma
	if plan.ptolemaic {
		narrowTo = plan.beta
	}
	keep := ts.sel.Select(ts.keep, tri, nil, narrowTo)
	ts.keep = keep

	if plan.ptolemaic {
		// Ptolemaic inequality (Eq. 6): tighter but O(m²) per object. Each
		// survivor's bound replaces its triangular one in tri, which then
		// holds the last stage's bound by walk position. The survivors
		// ascend, so ranking their bounds by index ties by walk position.
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		ts.pto = ts.pto[:0]
		for _, p := range keep {
			tri[p] = math.Float64bits(ix.ptolemaicLB(qdist, arena[int(p)*m:int(p+1)*m], sc))
			ts.pto = append(ts.pto, tri[p])
		}
		ts.sub = ts.sel.Select(ts.sub, ts.pto, nil, plan.gamma)
		for j, i := range ts.sub {
			keep[j] = keep[i]
		}
		keep = keep[:len(ts.sub)]
	}
	// The survivors are a set; only the κ cap, which truncates the union
	// by filter rank, needs them in (bound, walk position) order.
	if plan.maxCandidates > 0 {
		slices.SortFunc(keep, func(a, b uint32) int {
			return cmp.Or(cmp.Compare(tri[a], tri[b]), cmp.Compare(a, b))
		})
	}
	for _, p := range keep {
		ids = append(ids, entryIDs[p])
	}
	return ids, fetched, nil
}

// appendTriangular appends each entry of a walk's run, in walk order,
// to ids (its slot) and tri (its bound, triangularLB over its codes).
func appendTriangular(tri, ids []uint64, qs []float64, sc rdbtree.Scale, run []uint16, descending bool) ([]uint64, []uint64) {
	w := 2 + len(qs)
	n := len(run) / w
	at := len(tri)
	tri, ids = slices.Grow(tri, n)[:at+n], slices.Grow(ids, n)[:at+n]
	bounds, slots := tri[at:], ids[at:]
	for e := range n {
		entry := run[e*w : (e+1)*w]
		i := e
		if descending {
			i = n - 1 - e
		}
		bounds[i] = triangularLB(qs, entry[2:], sc)
		slots[i] = rdbtree.Slot(entry)
	}
	return tri, ids
}

// appendCodes appends each entry's distance codes to arena in walk order.
func appendCodes(arena, run []uint16, m int, descending bool) []uint16 {
	w := 2 + m
	n := len(run) / w
	for i := range n {
		e := i
		if descending {
			e = n - 1 - i
		}
		arena = append(arena, run[e*w+2:(e+1)*w]...)
	}
	return arena
}

// triangularLB is Eq. (5), max_i |d(q,R_i) - d(o,R_i)|, over an entry's
// codes, widened by the tree's error bound: max(0, max_i |qs_i − u_i|·s
// − ε), where qs_i = d(q,R_i)/s. It is the IEEE bit pattern of the
// bound: for the non-negative floats it encodes that orders as the float
// does, and it is the filter's selection key. It runs once per fetched
// leaf entry, so it is branch-free — which side of a reference distance
// the query falls on is a coin flip no predictor learns — and an integer
// max is one conditional move where a float max is a chain of several
// dependent instructions. A widened bound below zero has its sign bit
// set, so as a signed integer it is below zero's bits, +0.
func triangularLB(qs []float64, codes []uint16, sc rdbtree.Scale) uint64 {
	codes = codes[:len(qs)]
	var best uint64
	for i, q := range qs {
		best = max(best, math.Float64bits(q-float64(codes[i]))&^(1<<63))
	}
	lb := math.Float64frombits(best)*sc.S - sc.Eps
	return uint64(max(int64(math.Float64bits(lb)), 0))
}

// ptolemaicLB is Eq. (6) over an entry's decoded distances d'(o,R_i),
// its numerator widened by the error bound ε they carry:
// max(0, max_{i<j} (|d(q,R_i)·d'(o,R_j) - d(q,R_j)·d'(o,R_i)| − ε·(d(q,R_i)+d(q,R_j))) / d(R_i,R_j)).
func (ix *Index) ptolemaicLB(qdist []float64, codes []uint16, sc rdbtree.Scale) float64 {
	var best float64
	m := len(qdist)
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			den := ix.refCross[i][j]
			if den <= 0 {
				continue
			}
			num := math.Abs(qdist[i]*sc.Decode(codes[j])-qdist[j]*sc.Decode(codes[i])) - sc.Eps*(qdist[i]+qdist[j])
			if lb := num / den; lb > best {
				best = lb
			}
		}
	}
	return best
}
