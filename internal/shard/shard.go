package shard

import (
	"context"
	"fmt"
	"sync"

	"github.com/hd-index/hdindex/internal/core"
	"github.com/hd-index/hdindex/internal/pager"
	"github.com/hd-index/hdindex/internal/telemetry"
)

// Sharded is an HD-Index partitioned across N >= 1 independent core
// sub-indexes: a manifest-backed directory of N shards, or a bare core
// directory serving as its own single shard. It is the one index handle
// everything above this package holds (the public facade, the server,
// the bench harness), whatever the on-disk layout.
//
// Concurrency: searches run lock-free here (each sub-index does its own
// reader/writer locking); mu serialises Insert's route-and-append pair
// and guards the cached total count. A one-shard layout has nothing to
// route, so its Insert and Count go straight to the sub-index without mu
// and concurrent writers keep core's WAL group commit.
type Sharded struct {
	mu     sync.RWMutex
	man    Manifest
	shards []*core.Index
	total  uint64 // sum of shard counts; maintained by Insert when N > 1

	// buildStats aggregates the shards' construction costs; set by
	// Build, nil on an Opened layout.
	buildStats *core.BuildStats
}

// Info is one shard's row of the layout breakdown exposed through
// /stats and hdtool info.
type Info struct {
	ID         int
	Count      uint64
	Clustered  uint64 // leading vectors stored in tree-0 key order (core's slot space)
	Records    string // vectors.pg's record format (core.Index.StoreFormat)
	Deleted    int
	SizeOnDisk int64
}

// numShards is len(shards) without a lock — the shard count is fixed at
// Build/Open time.
func (s *Sharded) numShards() uint64 { return uint64(len(s.shards)) }

// ownerOf maps a global id to its owning shard and local id there.
func (s *Sharded) ownerOf(id uint64) (shard int, local uint64) {
	n := s.numShards()
	return int(id % n), id / n
}

// Open loads a layout previously written by Build, detecting it from
// the directory: with a manifest.json it opens the manifest's shards,
// otherwise dir itself as a bare core index serving as one shard.
// opts is applied to every sub-index.
func Open(dir string, opts core.OpenOptions) (*Sharded, error) {
	if !IsSharded(dir) {
		ix, err := core.Open(dir, opts)
		if err != nil {
			return nil, err
		}
		return bare(ix), nil
	}
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	s := &Sharded{man: *man, shards: make([]*core.Index, man.Shards)}
	for i := range s.shards {
		ix, err := core.Open(shardDir(dir, i), opts)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("shard: open shard %d: %w", i, err)
		}
		if d := ix.Dim(); d != man.Dim {
			s.Close()
			return nil, fmt.Errorf("shard: shard %d has dimensionality %d, manifest declares %d", i, d, man.Dim)
		}
		s.shards[i] = ix
		s.total += ix.Count()
	}
	return s, nil
}

// bare wraps a core index living directly in its directory as a
// 1-shard layout. The manifest exists in memory only: a bare directory
// stays exactly what core wrote, so core.Open keeps reading it.
func bare(ix *core.Index) *Sharded {
	return &Sharded{
		man:        Manifest{FormatVersion: FormatVersion, Shards: 1, Dim: ix.Dim()},
		shards:     []*core.Index{ix},
		total:      ix.Count(),
		buildStats: ix.BuildStats(),
	}
}

// Close releases every sub-index. Safe to call more than once and on a
// partially opened layout.
func (s *Sharded) Close() error {
	var first error
	for _, ix := range s.shards {
		if ix != nil {
			if err := ix.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Flush writes back every shard's dirty pages and meta. Inserts and
// deletes are already durable when they return (each shard's WAL), so
// Flush is only needed before copying the directory around.
func (s *Sharded) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ix := range s.shards {
		if err := ix.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Compact folds every shard's memtable into its trees. Shards compact
// sequentially; the first error aborts the sweep (already-compacted
// shards stay compacted).
func (s *Sharded) Compact(ctx context.Context) error {
	for i, ix := range s.shards {
		if err := ix.Compact(ctx); err != nil {
			return fmt.Errorf("shard: compact shard %d: %w", i, err)
		}
	}
	return nil
}

// Check runs core's consistency check on every shard, in shard order,
// stopping at the first that fails; the reports are of the shards that
// passed.
func (s *Sharded) Check(ctx context.Context) ([]core.CheckReport, error) {
	var reps []core.CheckReport
	for i, ix := range s.shards {
		rep, err := ix.Check(ctx)
		if err != nil {
			return reps, fmt.Errorf("shard: check shard %d: %w", i, err)
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

// IngestStats sums the shards' ingest counters.
func (s *Sharded) IngestStats() core.IngestStats {
	var agg core.IngestStats
	for _, ix := range s.shards {
		agg.Add(ix.IngestStats())
	}
	return agg
}

// Telemetry merges every shard's latency histograms into one snapshot.
// Counts sum and quantiles come from the merged buckets, so the view is
// the layout-wide latency distribution, not an average of averages.
func (s *Sharded) Telemetry() telemetry.CollectorSnapshot {
	var agg telemetry.CollectorSnapshot
	for _, ix := range s.shards {
		agg.Merge(ix.Telemetry())
	}
	return agg
}

// NumShards returns the shard count N.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Params returns the built HD-Index parameters. Every shard is built
// with the same Params (shard.Build fans one spec out), so shard 0
// speaks for the layout — the preset table and the SLO tuner resolve
// their operating points against it exactly as on a single index.
func (s *Sharded) Params() core.Params { return s.shards[0].Params() }

// BuildStats returns the aggregated construction cost breakdown of a
// freshly built layout (phase times and allocations summed across
// shards, TotalMS the build's wall clock), or nil when the layout was
// Opened from disk.
func (s *Sharded) BuildStats() *core.BuildStats { return s.buildStats }

// Dim returns the indexed dimensionality.
func (s *Sharded) Dim() int { return s.man.Dim }

// Count returns the total number of indexed vectors across shards.
func (s *Sharded) Count() uint64 {
	if len(s.shards) == 1 {
		return s.shards[0].Count()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.total
}

// DeletedCount sums the shards' deletion marks.
func (s *Sharded) DeletedCount() int {
	var n int
	for _, ix := range s.shards {
		n += ix.DeletedCount()
	}
	return n
}

// SizeOnDisk sums the shards' index files.
func (s *Sharded) SizeOnDisk() int64 {
	var total int64
	for _, ix := range s.shards {
		total += ix.SizeOnDisk()
	}
	return total
}

// IOStats sums the pager counters across every shard's files, so the
// serving layer reports one buffer-pool hit ratio for the whole layout.
func (s *Sharded) IOStats() pager.Stats {
	var agg pager.Stats
	for _, ix := range s.shards {
		agg.Add(ix.IOStats())
	}
	return agg
}

// ShardInfos returns the per-shard breakdown, in shard order.
func (s *Sharded) ShardInfos() []Info {
	out := make([]Info, len(s.shards))
	for i, ix := range s.shards {
		out[i] = Info{ID: i, Count: ix.Count(), Clustered: ix.Clustered(), Records: ix.StoreFormat(), Deleted: ix.DeletedCount(), SizeOnDisk: ix.SizeOnDisk()}
	}
	return out
}

// Insert appends one vector, routing it to the shard that owns the
// smallest unassigned global id. With balanced shard counts that is
// exactly "total mod N" round-robin; after a crash that persisted some
// shards' tails and not others', it refills the lost ids first, so the
// layout self-heals instead of refusing to open — the same semantics
// as a single core index, where ids of unflushed inserts are reused. The
// insert is durable when Insert returns: the owning shard appends it to
// its write-ahead log before acknowledging, as with core.
func (s *Sharded) Insert(vec []float32) (uint64, error) {
	if len(vec) != s.man.Dim {
		return 0, fmt.Errorf("%w: vector has %d dims, index has %d", core.ErrDimMismatch, len(vec), s.man.Dim)
	}
	if len(s.shards) == 1 {
		return s.shards[0].Insert(vec)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.numShards()
	sh := 0
	next := s.shards[0].Count() * n
	for i := 1; i < len(s.shards); i++ {
		if cand := s.shards[i].Count()*n + uint64(i); cand < next {
			sh, next = i, cand
		}
	}
	local, err := s.shards[sh].Insert(vec)
	if err != nil {
		return 0, err
	}
	id := GlobalID(sh, len(s.shards), local)
	if id != next {
		// The sub-index disagrees about its own length — id ownership
		// can no longer be trusted, so fail loudly rather than hand out
		// a global id that may collide.
		return 0, fmt.Errorf("shard: shard %d assigned global id %d, routing expected %d", sh, id, next)
	}
	s.total++
	return id, nil
}

// Delete marks global id as deleted on its owning shard. The mark is
// WAL-logged by the shard before Delete returns, so it survives a
// crash.
func (s *Sharded) Delete(id uint64) error {
	sh, local, err := s.route("delete", id)
	if err != nil {
		return err
	}
	return s.shards[sh].Delete(local)
}

// Undelete removes a deletion mark.
func (s *Sharded) Undelete(id uint64) error {
	sh, local, err := s.route("undelete", id)
	if err != nil {
		return err
	}
	return s.shards[sh].Undelete(local)
}

// route validates a global id and returns its owner. The bound is the
// owning shard's own length, not the sum: after a crash-induced ragged
// tail the id space may briefly have holes, and only the owner knows
// whether its stripe reaches id. The check happens here so the error
// reports the global id, not a confusing per-shard local one.
func (s *Sharded) route(op string, id uint64) (shard int, local uint64, err error) {
	shard, local = s.ownerOf(id)
	if count := s.shards[shard].Count(); local >= count {
		return 0, 0, fmt.Errorf("%w: %s of id %d (shard %d holds ids below %d)",
			core.ErrUnknownID, op, id, shard, count*s.numShards()+uint64(shard))
	}
	return shard, local, nil
}
