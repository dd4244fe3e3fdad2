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
// The package is a thin facade over internal/shard and internal/core;
// README.md's "Layout" section is the system inventory and its
// "Benchmarks" section the reproduction of the paper's evaluation.
package hdindex

import (
	"context"
	"time"

	"github.com/hd-index/hdindex/internal/core"
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
	// tree, the vector store; per shard) in pages. Build records it as
	// the index's default; Open overrides that for this handle. 0 keeps
	// the default: 256 pages (1 MiB) at Build, the recorded value at Open.
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
	// WALSyncInterval selects the write-ahead log's durability
	// discipline for live inserts and deletes. 0 (the default)
	// group-commits: every acknowledged mutation is fsynced, batched
	// across concurrent writers. > 0 acknowledges after the page-cache
	// write and fsyncs on this cadence — acknowledged writes survive a
	// process crash but the last interval may be lost on power failure.
	// Both Build and Open honour it.
	WALSyncInterval time.Duration
	// MemtableMaxVectors is the number of live-inserted vectors held in
	// memory before a background compaction folds them into the trees
	// (0 = 4096). It bounds both queries' brute-force memtable scan and
	// WAL replay time after a crash. Both Build and Open honour it.
	MemtableMaxVectors int
	// DisableTelemetry turns off the built-in latency histograms and
	// per-phase query spans (see Telemetry). The default-on telemetry
	// costs a few clock reads per operation; disabling it zeroes
	// Stats.Phases and empties Telemetry(). Both Build and Open honour
	// it.
	DisableTelemetry bool
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
// is transparent to every method. It is safe for concurrent searches.
type Index struct {
	ix *shard.Sharded
}

// ShardInfo is one shard's row of an index's layout breakdown. An index
// built with Shards == 0 reports exactly one shard.
type ShardInfo = shard.Info

// BuildStats is the construction cost breakdown of a freshly built
// index: per-phase milliseconds (reference distances, Hilbert encode,
// radix sort, bulk load), heap allocations, and the observed peak heap.
// On a sharded layout the phase times and allocations are summed across
// shards while TotalMS stays wall clock.
type BuildStats = core.BuildStats

// Info is a point-in-time descriptive summary of an index: size,
// layout, and — when this process built it — the construction cost
// breakdown.
type Info struct {
	Count      uint64
	Dim        int
	Deleted    int
	SizeOnDisk int64
	NumShards  int
	Shards     []ShardInfo
	// Build is the construction cost of this index when it was built
	// by this process; nil after Open.
	Build *BuildStats
}

// Info returns the index's descriptive summary. Build statistics are
// only available on the handle returned by Build — an Opened index
// reports Build == nil.
func (i *Index) Info() Info {
	return Info{
		Count:      i.Count(),
		Dim:        i.Dim(),
		Deleted:    i.DeletedCount(),
		SizeOnDisk: i.SizeOnDisk(),
		NumShards:  i.NumShards(),
		Shards:     i.Shards(),
		Build:      i.ix.BuildStats(),
	}
}

// BuildStats returns the construction cost breakdown when this handle
// built the index, nil otherwise. Shorthand for Info().Build.
func (i *Index) BuildStats() *BuildStats { return i.ix.BuildStats() }

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
	sh, err := shard.BuildContext(ctx, dir, vectors, shard.Params{
		Params: core.Params{
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

			WALSyncInterval:    o.WALSyncInterval,
			MemtableMaxVectors: o.MemtableMaxVectors,
			DisableTelemetry:   o.DisableTelemetry,
		},
		Shards: o.Shards,
	})
	if err != nil {
		return nil, err
	}
	return &Index{ix: sh}, nil
}

// Open loads an index previously written by Build, detecting the
// layout: a directory with a manifest.json opens as its N shards,
// anything else as one index held directly in dir.
func Open(dir string, o Options) (*Index, error) {
	sh, err := shard.Open(dir, core.OpenOptions{
		PoolPages:    o.PoolPages,
		DisableCache: o.DisableCache,

		WALSyncInterval:    o.WALSyncInterval,
		MemtableMaxVectors: o.MemtableMaxVectors,
		DisableTelemetry:   o.DisableTelemetry,
	})
	if err != nil {
		return nil, err
	}
	return &Index{ix: sh}, nil
}

// Insert adds a vector to the index (§3.6) and returns its id. The
// insert is appended to a write-ahead log before Insert returns (see
// Options.WALSyncInterval for the exact durability guarantee), lands in
// an in-memory memtable that queries scan exactly, and is folded into
// the index structure by a background compaction.
func (i *Index) Insert(vec []float32) (uint64, error) {
	return i.ix.Insert(vec)
}

// Delete marks an object as deleted (§3.6); it will no longer be
// returned by Query. The mark is WAL-logged before Delete returns.
func (i *Index) Delete(id uint64) error { return i.ix.Delete(id) }

// Undelete removes a deletion mark. It fails with ErrPurged when a
// compaction has already reclaimed the deletion.
func (i *Index) Undelete(id uint64) error { return i.ix.Undelete(id) }

// Compact synchronously folds any memtable-resident inserts into the
// index trees and truncates the write-ahead log. Normally the
// background compactor does this when the memtable crosses
// Options.MemtableMaxVectors; Compact forces it — useful before
// benchmarking reads or snapshotting the directory. No-op when the
// memtable is empty.
func (i *Index) Compact(ctx context.Context) error { return i.ix.Compact(ctx) }

// IngestStats is a point-in-time snapshot of the live-ingest machinery:
// memtable occupancy, WAL size and sync counts, records replayed at
// open, and compaction history. On a sharded layout counters are summed
// across shards.
type IngestStats = core.IngestStats

// IngestStats returns the live-ingest counters.
func (i *Index) IngestStats() IngestStats { return i.ix.IngestStats() }

// Count returns the number of indexed vectors.
func (i *Index) Count() uint64 { return i.ix.Count() }

// Dim returns the indexed dimensionality.
func (i *Index) Dim() int { return i.ix.Dim() }

// SizeOnDisk returns the total size of the index files in bytes.
func (i *Index) SizeOnDisk() int64 { return i.ix.SizeOnDisk() }

// DeletedCount returns the number of deletion marks.
func (i *Index) DeletedCount() int { return i.ix.DeletedCount() }

// IOStats returns the cumulative pager counters across all index files;
// PoolStats.HitRatio summarises buffer-pool effectiveness.
func (i *Index) IOStats() PoolStats { return i.ix.IOStats() }

// Telemetry is a point-in-time copy of the index's latency histograms:
// whole queries, the per-phase breakdown, inserts, compactions, and WAL
// fsyncs. Histograms are log-bucketed (quantile estimates within 3.125%)
// with exact counts, sums, and maxima; on a sharded layout the per-shard
// histograms are bucket-merged, so quantiles reflect the layout-wide
// distribution. Empty when Options.DisableTelemetry was set.
type Telemetry = telemetry.CollectorSnapshot

// Telemetry returns the index's latency histogram snapshot.
func (i *Index) Telemetry() Telemetry { return i.ix.Telemetry() }

// NumShards returns the number of shards in the on-disk layout; an
// index built with Shards == 0 counts as 1.
func (i *Index) NumShards() int { return i.ix.NumShards() }

// Shards returns the per-shard layout breakdown, in shard order, so
// callers (the /stats endpoint, hdtool info) render every layout
// uniformly.
func (i *Index) Shards() []ShardInfo { return i.ix.ShardInfos() }

// CheckReport is what a passing Check verified on one shard.
type CheckReport = core.CheckReport

// Check verifies the on-disk invariants a query would never notice
// broken (`hdtool check`): the id↔slot map is a bijection, every tree
// holds every live vector exactly once in key order with intact sibling
// links, and the keys and reference distances in the leaves are the ones
// recomputed from the stored vectors. One report per shard; the first
// violation is the error. Writers wait while it runs, searches do not.
func (i *Index) Check(ctx context.Context) ([]CheckReport, error) { return i.ix.Check(ctx) }

// Flush persists all state.
func (i *Index) Flush() error { return i.ix.Flush() }

// Close releases all file handles.
func (i *Index) Close() error { return i.ix.Close() }
