package shard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"github.com/hd-index/hdindex/internal/core"
	"github.com/hd-index/hdindex/internal/fanout"
)

// Params configures a build: the HD-Index parameters plus the layout
// shape.
type Params struct {
	core.Params

	// Shards selects the on-disk layout. 0 writes one core index
	// directly into the directory (no manifest, no shard-NN/). N >= 1
	// writes the manifest layout of N sub-indexes, each a complete
	// HD-Index over its ~1/N stripe of the data: smaller sorts, smaller
	// reference-selection samples, and independent files — which is
	// what lets Build parallelise beyond core's per-tree concurrency
	// and a cluster place shards on different machines.
	Shards int
}

// Build constructs an HD-Index over vectors in directory dir. With
// Shards >= 1 it stripes the dataset round-robin across N shards,
// builds them as parts idle CPUs join (fanout.Each), and commits
// the layout by writing the manifest last; with Shards == 0 the
// directory holds the one core index itself.
func Build(dir string, vectors [][]float32, p Params) (*Sharded, error) {
	return BuildContext(context.Background(), dir, vectors, p)
}

// BuildContext is Build honouring ctx: per-shard builds check for
// cancellation between work chunks, remaining shards are not started,
// and the manifest (the layout's commit point) is never written — a
// cancelled directory fails Open rather than serving a partial layout.
func BuildContext(ctx context.Context, dir string, vectors [][]float32, p Params) (*Sharded, error) {
	if p.Shards < 0 {
		return nil, fmt.Errorf("shard: shards must be >= 0, got %d", p.Shards)
	}
	if p.Shards == 0 {
		// A bare build into a directory that previously held a manifest
		// layout must remove it first — a stale manifest would keep Open
		// serving the old shards, and stale shard dirs would leak a full
		// copy of the previous dataset.
		if err := clearLayout(dir); err != nil {
			return nil, err
		}
		ix, err := core.BuildContext(ctx, dir, vectors, p.Params)
		if err != nil {
			return nil, err
		}
		return bare(ix), nil
	}
	if len(vectors) == 0 {
		return nil, errors.New("shard: empty dataset")
	}
	if p.Shards > len(vectors) {
		return nil, fmt.Errorf("shard: %d shards exceed dataset size %d", p.Shards, len(vectors))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: mkdir %s: %w", dir, err)
	}
	// Invalidate and remove any previous layout first — the manifest
	// and shard dirs, and a bare index's root meta.json, trees and
	// vectors alike. Until the new manifest is written at the end, the
	// directory must not look like a complete index of either kind, so
	// a crash mid-rebuild fails Open instead of silently serving the
	// old dataset.
	if err := clearLayout(dir); err != nil {
		return nil, err
	}
	if err := core.RemoveIndexFiles(dir); err != nil {
		return nil, err
	}

	n := p.Shards
	stripes := make([][][]float32, n)
	for i := range stripes {
		// Shard i owns global ids i, i+N, i+2N, ... — local id l there
		// is global l*N+i.
		stripes[i] = make([][]float32, 0, (len(vectors)-i+n-1)/n)
	}
	for g, v := range vectors {
		stripes[g%n] = append(stripes[g%n], v)
	}

	s := &Sharded{
		man: Manifest{
			FormatVersion: FormatVersion,
			Shards:        n,
			Dim:           len(vectors[0]),
			UUID:          NewUUID(),
			CreatedUnix:   now().Unix(),
		},
		shards: make([]*core.Index, n),
		total:  uint64(len(vectors)),
	}

	// The sharded build counts as one unit of work, so a shard's build
	// on a goroutine already counted takes no second CPU place; the
	// shards, and the trees and chunks inside each, are parts idle CPUs
	// join. The first failure (or ctx) stops further shard builds
	// instead of burning CPU on a doomed layout.
	ctx, leave := fanout.Enter(ctx)
	defer leave()
	buildStart := time.Now()
	// One allocation window around the whole fan-out: per-shard Allocs
	// deltas are process-wide counters over overlapping windows when
	// shards build concurrently, so summing them would multiply-count.
	var probe core.MemProbe
	probe.Sample()
	err := fanout.Each(ctx, n, func(ctx context.Context, i int) error {
		sp := p.Params
		// Derive per-shard seeds so shards don't sample identical
		// reference candidates; shard 0 keeps the caller's seed, so
		// a 1-shard build is bit-identical to the monolithic layout.
		sp.Seed = p.Seed + int64(i)
		ix, err := core.BuildContext(ctx, shardDir(dir, i), stripes[i], sp)
		if err != nil {
			return fmt.Errorf("shard: build shard %d: %w", i, err)
		}
		s.shards[i] = ix
		// Stamp the shard with its place in the layout so a standalone
		// server over this directory can prove which shard it holds
		// (the distributed deployment's miswiring check).
		if err := WriteIdentity(shardDir(dir, i), Identity{
			ClusterUUID: s.man.UUID, Shard: i, Shards: n, Dim: s.man.Dim,
		}); err != nil {
			return fmt.Errorf("shard: stamp shard %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		s.Close()
		return nil, err
	}

	// Aggregate the per-shard construction costs: phase times sum (with
	// shards building concurrently the sums exceed wall clock), peak
	// heap takes the max, while TotalMS and Allocs are measured here,
	// across the whole fan-out, wall clock and one allocation window.
	agg := &core.BuildStats{}
	for _, ix := range s.shards {
		if bs := ix.BuildStats(); bs != nil {
			agg.Add(*bs)
		}
	}
	agg.TotalMS = float64(time.Since(buildStart).Microseconds()) / 1e3
	agg.Allocs, agg.PeakHeapBytes = probe.Finish()
	s.buildStats = agg

	// Commit point: a crash before this line leaves a directory Open
	// rejects (no manifest) instead of a silently short layout.
	if err := writeManifest(dir, &s.man); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}
