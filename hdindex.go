// Package hdindex is a from-scratch Go implementation of HD-Index
// (Arora, Sinha, Kumar, Bhattacharya — "HD-Index: Pushing the
// Scalability-Accuracy Boundary for Approximate kNN Search in
// High-Dimensional Spaces", PVLDB 11(8), 2018).
//
// HD-Index answers approximate k-nearest-neighbour queries over large,
// disk-resident, high-dimensional datasets. It splits the ν dimensions
// into τ contiguous partitions, orders each partition along a Hilbert
// space-filling curve, and indexes every partition's keys in an RDB-tree
// — a B+-tree whose leaves store each object's distances to m reference
// objects instead of descriptors or bare pointers. Queries walk the α
// nearest leaf entries per tree, prune them with triangular (and
// optionally Ptolemaic) lower bounds computed from the leaf-resident
// reference distances at zero extra I/O, and refine only the κ ≤ τ·γ
// survivors against the raw vectors.
//
// Quickstart:
//
//	idx, err := hdindex.Build("my.index", vectors, hdindex.Options{})
//	...
//	resp, err := idx.Query(ctx, query, 10)
//
// Query is the single search entry point. The knobs that govern the
// accuracy-scalability boundary — α, β, γ, the Ptolemaic filter — are
// per-query options, so one built index serves every operating point of
// the recall/latency frontier:
//
//	resp, err := idx.Query(ctx, query, 10,
//	    hdindex.WithAlpha(8192), hdindex.WithStats())
//
// An Index is N >= 1 such structures (internal/core), one per shard of a
// round-robin stripe of the vectors: it routes writes to the owning shard
// and merges the shards' answers to a query (internal/shard holds the
// on-disk layout and the merge rule). README.md's "Layout" section is
// the system inventory and its "Benchmarks" section the reproduction of
// the paper's evaluation.
package hdindex

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/hd-index/hdindex/internal/core"
	"github.com/hd-index/hdindex/internal/fanout"
	"github.com/hd-index/hdindex/internal/pager"
	"github.com/hd-index/hdindex/internal/shard"
	"github.com/hd-index/hdindex/internal/telemetry"
)

// Options configures Build. The zero value uses the paper's recommended
// parameters (§5.2): m = 10 reference objects chosen by SSS, τ = 8 trees
// (16 at ν ≥ 500), α = 4096 candidates per tree narrowed to γ = α/4 by
// the triangular filter, 4 KB pages.
//
// No option sizes a worker pool. A build, a query and a batch each count
// as one unit of work and split into independent parts (trees, chunks,
// refinement runs, queries, shards) that helper goroutines join only on
// CPUs no other counted work in the process holds (internal/fanout). One
// client's work thus uses every idle core and a loaded server runs each
// unit alone; the bytes written and the answers returned are the same
// however many helpers join.
type Options struct {
	// Tau is the number of dimension partitions (and RDB-trees). It must
	// divide the dataset dimensionality; 0 picks the paper's default.
	Tau int
	// Omega is the Hilbert curve order: bits of resolution per dimension.
	Omega int
	// M is the number of reference objects.
	M int
	// Alpha, Beta, Gamma are the filter cascade sizes (per tree).
	Alpha, Beta, Gamma int
	// UsePtolemaic enables the Ptolemaic filter (§5.2.5): better MAP for
	// the same I/O, roughly doubled CPU time.
	UsePtolemaic bool
	// DisableCache turns the buffer pool off (the paper's cold-cache
	// measurement protocol).
	DisableCache bool
	// PoolPages is the buffer-pool capacity of each index file (every
	// tree, the vector store, the slot map; per shard) in pages, pooled
	// across the index's files: a shard's files share one pool of files ×
	// PoolPages frames. Build records it as the index's default; Open
	// overrides that for this handle. 0 keeps the default: 256 pages
	// (1 MiB) at Build, the recorded value at Open. Negative is an error.
	PoolPages int
	// PageSize is the disk page size in bytes (default 4096).
	PageSize int
	// Seed makes reference selection and construction deterministic.
	Seed int64
	// Shards partitions the index into this many independently built
	// and searched sub-indexes under a manifest-backed on-disk layout
	// (round-robin striping; see internal/shard). 0 writes one index
	// directly into the directory. Open ignores this field: it detects
	// the layout from the directory.
	Shards int
	// MemtableMaxVectors is the number of live-inserted vectors held in
	// memory before a background compaction folds them into the trees
	// (0 = 4096). It bounds both queries' brute-force memtable scan and
	// WAL replay time after a crash. Both Build and Open honour it.
	MemtableMaxVectors int
}

// ErrUnknownID reports a Delete of an id the index never assigned.
var ErrUnknownID = core.ErrUnknownID

// ErrPurged reports an Undelete of an id whose deletion a compaction
// already reclaimed: the vector's tree entries are gone for good.
var ErrPurged = core.ErrPurged

// ErrWALUnavailable reports a write rejected because the write-ahead
// log failed (an fsync or append error): the index is read-only until
// reopened, while searches keep serving. The HTTP layer maps it to a
// 503 with code "wal_unavailable".
var ErrWALUnavailable = core.ErrWALUnavailable

// ErrIO classifies a disk I/O failure surfaced by the page layer
// (reads or writes of tree, vector-store, or superblock pages). Match
// with errors.Is; queries fail with a typed error instead of
// panicking, and the HTTP layer maps it to a 503 with code "io_error".
var ErrIO = pager.ErrIO

// Result is one returned neighbour, nearest first.
type Result = core.Result

// Stats reports per-query work: candidates refined, leaf entries
// fetched, physical page reads, and buffer-pool hits/misses.
type Stats = core.QueryStats

// PoolStats aggregates the buffer-pool and I/O counters of every file
// backing the index (all trees and the vector store; every shard on a
// sharded layout) since open or the last reset. Hits/Misses expose the
// cache behaviour of the refinement step's page-ordered fetch.
type PoolStats = pager.Stats

// Index is a built HD-Index of one or more shards; the on-disk layout
// is transparent to every method. It is safe for concurrent use.
//
// Global id g lives in shard g mod N at local id g div N. Searches run
// lock-free here (each shard does its own reader/writer locking). mu
// guards only the reservations: Insert picks its owner shard and reserves
// the next local id there under mu, then appends outside it, so
// concurrent writers share each shard's WAL group commit.
type Index struct {
	mu       sync.Mutex
	shards   []*core.Index
	reserved []uint64 // per shard: local ids below this are taken or in flight

	// build is the construction cost breakdown; set by Build, nil after
	// Open.
	build *BuildStats
}

// ShardInfo is one shard's row of an index's report (/stats' per_shard,
// hdtool info): the shard's own snapshot, taken under its lock, and its
// ordinal. An index built with Shards == 0 reports exactly one shard.
type ShardInfo struct {
	ID int `json:"id"`
	core.Info
}

// BuildStats is the construction cost breakdown of a freshly built
// index: per-phase milliseconds (reference distances, Hilbert encode,
// radix sort, bulk load), heap allocations, and the observed peak heap.
// On a sharded layout the phase times and allocations are summed across
// shards while TotalMS stays wall clock.
type BuildStats = core.BuildStats

// Info is the index's one report of itself: size, layout, buffer-pool
// and ingest counters, and — when this process built it — the
// construction cost breakdown. Its JSON is /stats' "index" block, and
// /metrics and hdtool info read it too. Each shard's row is taken under
// that shard's lock; the totals are their sums.
type Info struct {
	Count      uint64      `json:"count"`
	Dim        int         `json:"dim"`
	Deleted    int         `json:"deleted"`
	SizeOnDisk int64       `json:"size_on_disk"`
	NumShards  int         `json:"shards"`
	Shards     []ShardInfo `json:"per_shard"`
	// IO is the pager counters of every file since open (hit_ratio =
	// hits/(hits+misses) shows the page-ordered fetch's cache behaviour).
	IO PoolStats `json:"io"`
	// WAL is the live-ingest block: memtable occupancy (the query
	// staleness bound), WAL size and group-commit counters, records
	// replayed at open (>0 means the index recovered from a crash), and
	// compaction history.
	WAL IngestStats `json:"wal"`
	// Build is the construction cost of this index when it was built
	// by this process; nil after Open.
	Build *BuildStats `json:"-"`
}

// Info returns the index's report. Build statistics are only available
// on the handle returned by Build — an Opened index reports Build == nil.
func (i *Index) Info() Info {
	n := len(i.shards)
	in := Info{Dim: i.Dim(), NumShards: n, Shards: make([]ShardInfo, n), Build: i.build}
	for s, ix := range i.shards {
		sh := ShardInfo{ID: s, Info: ix.Info()}
		in.Shards[s] = sh
		in.Count += sh.Count
		in.Deleted += sh.Deleted
		in.SizeOnDisk += sh.SizeOnDisk
		in.IO.Add(sh.IO)
		in.WAL.Add(sh.WAL)
	}
	return in
}

// BuildStats returns the construction cost breakdown when this handle
// built the index, nil otherwise. Shorthand for Info().Build.
func (i *Index) BuildStats() *BuildStats { return i.build }

// Build constructs an HD-Index over vectors in the directory dir.
// All vectors must share the same dimensionality. Options.Shards
// selects the on-disk layout: 0 writes one index directly into dir,
// N >= 1 a manifest-backed layout of N concurrently built shards.
func Build(dir string, vectors [][]float32, o Options) (*Index, error) {
	return BuildContext(context.Background(), dir, vectors, o)
}

// BuildContext is Build honouring ctx: construction checks for
// cancellation between work chunks (reference distances, per-tree
// Hilbert encoding, shard fan-out) and returns promptly with ctx's
// error. A cancelled build never writes the layout's commit point
// (meta.json or manifest.json), so Open rejects the directory instead
// of serving a half-built index.
func BuildContext(ctx context.Context, dir string, vectors [][]float32, o Options) (*Index, error) {
	p := core.Params{
		Tau:          o.Tau,
		Omega:        o.Omega,
		M:            o.M,
		Alpha:        o.Alpha,
		Beta:         o.Beta,
		Gamma:        o.Gamma,
		UsePtolemaic: o.UsePtolemaic,
		DisableCache: o.DisableCache,
		PoolPages:    o.PoolPages,
		PageSize:     o.PageSize,
		Seed:         o.Seed,

		MemtableMaxVectors: o.MemtableMaxVectors,
	}
	switch {
	case o.Shards < 0:
		return nil, fmt.Errorf("hdindex: shards must be >= 0, got %d", o.Shards)
	case o.Shards == 0:
		// A bare build into a directory that previously held a manifest
		// layout must remove it first — a stale manifest would keep Open
		// serving the old shards, and stale shard dirs would leak a full
		// copy of the previous dataset.
		if err := shard.ClearLayout(dir); err != nil {
			return nil, err
		}
		ix, err := core.BuildContext(ctx, dir, vectors, p)
		if err != nil {
			return nil, err
		}
		return (&Index{shards: []*core.Index{ix}, build: ix.BuildStats()}).reserve(), nil
	case len(vectors) == 0:
		return nil, errors.New("hdindex: empty dataset")
	case o.Shards > len(vectors):
		return nil, fmt.Errorf("hdindex: %d shards exceed dataset size %d", o.Shards, len(vectors))
	}
	return buildShards(ctx, dir, vectors, p, o.Shards)
}

// buildShards writes the manifest layout of n shards: it stripes the
// dataset round-robin, builds the shards as parts idle CPUs join
// (fanout.Each), stamps each with its place in the layout, and commits
// the layout by writing the manifest last. Per-shard builds check ctx
// between work chunks, the first failure stops further shard builds,
// and a failed or cancelled build never writes the manifest.
func buildShards(ctx context.Context, dir string, vectors [][]float32, p core.Params, n int) (*Index, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("hdindex: mkdir %s: %w", dir, err)
	}
	// Invalidate and remove any previous layout first — the manifest
	// and shard dirs, and a bare index's root meta.json, trees and
	// vectors alike. Until the new manifest is written at the end, the
	// directory must not look like a complete index of either kind, so
	// a crash mid-rebuild fails Open instead of silently serving the
	// old dataset.
	if err := shard.ClearLayout(dir); err != nil {
		return nil, err
	}
	if err := core.RemoveIndexFiles(dir); err != nil {
		return nil, err
	}

	stripes := make([][][]float32, n)
	for s := range stripes {
		stripes[s] = make([][]float32, 0, (len(vectors)-s+n-1)/n)
	}
	for g, v := range vectors {
		stripes[g%n] = append(stripes[g%n], v)
	}
	man := shard.Manifest{
		FormatVersion: shard.FormatVersion,
		Shards:        n,
		Dim:           len(vectors[0]),
		UUID:          shard.NewUUID(),
		CreatedUnix:   time.Now().Unix(),
	}
	i := &Index{shards: make([]*core.Index, n)}

	// The sharded build counts as one unit of work, so a shard's build
	// on a goroutine already counted takes no second CPU place; the
	// shards, and the trees and chunks inside each, are parts idle CPUs
	// join.
	ctx, leave := fanout.Enter(ctx)
	defer leave()
	start := time.Now()
	// One allocation window around the whole fan-out: per-shard Allocs
	// deltas are process-wide counters over overlapping windows when
	// shards build concurrently, so summing them would multiply-count.
	var probe core.MemProbe
	probe.Sample()
	err := fanout.Each(ctx, n, func(ctx context.Context, s int) error {
		sp := p
		// Derive per-shard seeds so shards don't sample identical
		// reference candidates; shard 0 keeps the caller's seed, so a
		// 1-shard build is bit-identical to the bare layout.
		sp.Seed = p.Seed + int64(s)
		ix, err := core.BuildContext(ctx, shard.Dir(dir, s), stripes[s], sp)
		if err != nil {
			return fmt.Errorf("hdindex: build shard %d: %w", s, err)
		}
		i.shards[s] = ix
		// Stamp the shard with its place in the layout so a standalone
		// server over this directory can prove which shard it holds
		// (the distributed deployment's miswiring check).
		if err := shard.WriteIdentity(shard.Dir(dir, s), shard.Identity{
			ClusterUUID: man.UUID, Shard: s, Shards: n, Dim: man.Dim,
		}); err != nil {
			return fmt.Errorf("hdindex: stamp shard %d: %w", s, err)
		}
		return nil
	})
	if err != nil {
		i.Close()
		return nil, err
	}

	// Phase times sum (with shards building concurrently the sums exceed
	// wall clock) and peak heap takes the max, while TotalMS and Allocs
	// are measured here, across the whole fan-out.
	i.build = &BuildStats{}
	for _, ix := range i.shards {
		if bs := ix.BuildStats(); bs != nil {
			i.build.Add(*bs)
		}
	}
	i.build.TotalMS = float64(time.Since(start).Microseconds()) / 1e3
	i.build.Allocs, i.build.PeakHeapBytes = probe.Finish()

	// Commit point: a crash before this line leaves a directory Open
	// rejects (no manifest) instead of a silently short layout.
	if err := shard.WriteManifest(dir, &man); err != nil {
		i.Close()
		return nil, err
	}
	return i.reserve(), nil
}

// reserve starts each shard's reservations at its count, once every
// shard is open.
func (i *Index) reserve() *Index {
	i.reserved = make([]uint64, len(i.shards))
	for s, ix := range i.shards {
		i.reserved[s] = ix.Count()
	}
	return i
}

// Open loads an index previously written by Build, detecting the
// layout: a directory with a manifest.json opens as its N shards,
// anything else as one index held directly in dir.
func Open(dir string, o Options) (*Index, error) {
	opts := core.OpenOptions{
		PoolPages:    o.PoolPages,
		DisableCache: o.DisableCache,

		MemtableMaxVectors: o.MemtableMaxVectors,
	}
	if !shard.IsSharded(dir) {
		ix, err := core.Open(dir, opts)
		if err != nil {
			return nil, err
		}
		return (&Index{shards: []*core.Index{ix}}).reserve(), nil
	}
	man, err := shard.ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	// The slice grows as shards open: the manifest's count is only
	// trusted as far as there are shard directories to back it.
	i := &Index{}
	for s := 0; s < man.Shards; s++ {
		ix, err := core.Open(shard.Dir(dir, s), opts)
		if err != nil {
			i.Close()
			return nil, fmt.Errorf("hdindex: open shard %d: %w", s, err)
		}
		i.shards = append(i.shards, ix)
		if d := ix.Dim(); d != man.Dim {
			i.Close()
			return nil, fmt.Errorf("hdindex: shard %d has dimensionality %d, manifest declares %d", s, d, man.Dim)
		}
	}
	return i.reserve(), nil
}

// Insert adds a vector to the index (§3.6) and returns its id. The
// insert is appended to a write-ahead log and fsynced before Insert
// returns (one fsync serves every writer queued behind it), lands in an
// in-memory memtable that queries scan exactly, and is folded into the
// index structure by a background compaction.
//
// The vector goes to the shard that owns the smallest unreserved global
// id. With balanced shard counts that is exactly "count mod N"
// round-robin; after a crash that persisted some shards' tails and not
// others', it refills the lost ids first, so the layout self-heals
// instead of refusing to open — the same semantics as a single shard,
// where ids of unflushed inserts are reused.
//
// Only the reservation holds mu: the shard's append and its durable wait
// run outside it, so concurrent writers share the owner's WAL group
// commit. Concurrent inserts into one shard may take its reserved local
// ids in either order, so the id returned is the one the shard assigned.
func (i *Index) Insert(vec []float32) (uint64, error) {
	if dim := i.Dim(); len(vec) != dim {
		return 0, fmt.Errorf("%w: vector has %d dims, index has %d", core.ErrDimMismatch, len(vec), dim)
	}
	n := uint64(len(i.shards))
	i.mu.Lock()
	owner := 0
	for s := range i.reserved {
		if i.reserved[s]*n+uint64(s) < i.reserved[owner]*n+uint64(owner) {
			owner = s
		}
	}
	i.reserved[owner]++
	i.mu.Unlock()

	local, err := i.shards[owner].Insert(vec)
	i.mu.Lock()
	defer i.mu.Unlock()
	if err != nil {
		i.reserved[owner]--
		return 0, err
	}
	if local >= i.reserved[owner] {
		// The shard disagrees about its own length — id ownership can no
		// longer be trusted, so fail loudly rather than hand out a global
		// id that may collide.
		return 0, fmt.Errorf("hdindex: shard %d assigned local id %d past its %d reserved", owner, local, i.reserved[owner])
	}
	return shard.GlobalID(owner, len(i.shards), local), nil
}

// Delete marks an object as deleted (§3.6); it will no longer be
// returned by Query. The mark is WAL-logged before Delete returns.
func (i *Index) Delete(id uint64) error {
	ix, local, err := i.route("delete", id)
	if err != nil {
		return err
	}
	return ix.Delete(local)
}

// Undelete removes a deletion mark. It fails with ErrPurged when a
// compaction has already reclaimed the deletion.
func (i *Index) Undelete(id uint64) error {
	ix, local, err := i.route("undelete", id)
	if err != nil {
		return err
	}
	return ix.Undelete(local)
}

// route returns the shard owning global id and the id's local number
// there. The bound is the owning shard's own length, not the total:
// after a crash-induced ragged tail the id space may briefly have holes,
// and only the owner knows whether its stripe reaches id. The check
// happens here so the error reports the global id, not a confusing
// per-shard local one.
func (i *Index) route(op string, id uint64) (*core.Index, uint64, error) {
	n := uint64(len(i.shards))
	s, local := id%n, id/n
	if count := i.shards[s].Count(); local >= count {
		return nil, 0, fmt.Errorf("%w: %s of id %d (shard %d holds ids below %d)",
			core.ErrUnknownID, op, id, s, count*n+s)
	}
	return i.shards[s], local, nil
}

// Compact synchronously folds any memtable-resident inserts into the
// index trees and truncates the write-ahead log. Normally the
// background compactor does this when the memtable crosses
// Options.MemtableMaxVectors; Compact forces it — useful before
// benchmarking reads or snapshotting the directory. No-op when the
// memtable is empty. Shards compact in order; the first error aborts
// the sweep (shards already compacted stay compacted).
func (i *Index) Compact(ctx context.Context) error {
	for s, ix := range i.shards {
		if err := ix.Compact(ctx); err != nil {
			return fmt.Errorf("hdindex: compact shard %d: %w", s, err)
		}
	}
	return nil
}

// IngestStats is a point-in-time snapshot of the live-ingest machinery:
// memtable occupancy, WAL size and sync counts, records replayed at
// open, and compaction history. On a sharded layout counters are summed
// across shards.
type IngestStats = core.IngestStats

// IngestStats returns the live-ingest counters.
func (i *Index) IngestStats() IngestStats {
	var agg IngestStats
	for _, ix := range i.shards {
		agg.Add(ix.IngestStats())
	}
	return agg
}

// Count returns the number of indexed vectors.
func (i *Index) Count() uint64 {
	var n uint64
	for _, ix := range i.shards {
		n += ix.Count()
	}
	return n
}

// Dim returns the indexed dimensionality.
func (i *Index) Dim() int { return i.shards[0].Dim() }

// SizeOnDisk returns the total size of the index files in bytes.
func (i *Index) SizeOnDisk() int64 {
	var total int64
	for _, ix := range i.shards {
		total += ix.SizeOnDisk()
	}
	return total
}

// DeletedCount returns the number of deletion marks.
func (i *Index) DeletedCount() int {
	var n int
	for _, ix := range i.shards {
		n += ix.DeletedCount()
	}
	return n
}

// IOStats returns the cumulative pager counters across all index files;
// PoolStats.HitRatio summarises buffer-pool effectiveness.
func (i *Index) IOStats() PoolStats {
	var agg PoolStats
	for _, ix := range i.shards {
		agg.Add(ix.IOStats())
	}
	return agg
}

// Telemetry is a point-in-time copy of the index's latency histograms:
// whole queries, the per-phase breakdown, inserts, compactions, and WAL
// fsyncs. Histograms are log-bucketed (quantile estimates within 3.125%)
// with exact counts, sums, and maxima; on a sharded layout the per-shard
// histograms are bucket-merged, so quantiles reflect the layout-wide
// distribution, not an average of averages.
type Telemetry = telemetry.CollectorSnapshot

// Telemetry returns the index's latency histogram snapshot.
func (i *Index) Telemetry() Telemetry {
	var agg Telemetry
	for _, ix := range i.shards {
		agg.Merge(ix.Telemetry())
	}
	return agg
}

// NumShards returns the number of shards in the on-disk layout; an
// index built with Shards == 0 counts as 1.
func (i *Index) NumShards() int { return len(i.shards) }

// CheckReport is what a passing Check verified on one shard.
type CheckReport = core.CheckReport

// Check verifies the on-disk invariants a query would never notice
// broken (`hdtool check`): the id↔slot map is a bijection, every tree
// holds every live vector exactly once in key order with intact sibling
// links, and the keys and reference distances in the leaves are the ones
// recomputed from the stored vectors. One report per shard, in shard
// order, of the shards that passed; the first violation is the error.
// Writers wait while it runs, searches do not.
func (i *Index) Check(ctx context.Context) ([]CheckReport, error) {
	var reps []CheckReport
	for s, ix := range i.shards {
		rep, err := ix.Check(ctx)
		if err != nil {
			return reps, fmt.Errorf("hdindex: check shard %d: %w", s, err)
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

// Flush persists every shard's in-memory state: its deletion marks,
// committed through meta.json, and a WAL fsync (core.Index.Flush);
// pages reach their files as they are written. Inserts and deletes are
// already durable when they return (each shard's WAL), so Flush is only
// needed before copying the directory around.
func (i *Index) Flush() error {
	for _, ix := range i.shards {
		if err := ix.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Close releases all file handles. Safe to call more than once and on
// a partially built or opened index.
func (i *Index) Close() error {
	var first error
	for _, ix := range i.shards {
		if ix != nil {
			if err := ix.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
