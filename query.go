package hdindex

import (
	"context"
	"fmt"

	"github.com/hd-index/hdindex/internal/core"
	"github.com/hd-index/hdindex/internal/fanout"
	"github.com/hd-index/hdindex/internal/shard"
)

// ErrBadOptions reports a per-query option set that cannot form a valid
// filter cascade (negative or absurd knobs, γ > α, an explicit knob too
// small to yield k results). Query returns it before touching any tree.
var ErrBadOptions = core.ErrBadOptions

// ErrDimMismatch reports a query or insert vector whose dimensionality
// differs from the index's. Match with errors.Is; the HTTP layer maps
// it to a 400 with a structured error body.
var ErrDimMismatch = core.ErrDimMismatch

// QueryOption is a per-query tuning knob for Query and QueryBatch. The
// paper's accuracy-scalability boundary is governed at query time — α
// leaf candidates per tree, the γ-sized filter output, the optional
// Ptolemaic filter — so the knobs are request-scoped: one built index
// serves every operating point on the recall/latency frontier, no
// rebuild per point.
type QueryOption func(*queryConfig)

// SearchOptions is the whole per-query cascade as one value — α, β, γ,
// the κ cap and the Ptolemaic switch, each unset at its zero — the type
// the HTTP request bodies decode into (see core.SearchOptions).
type SearchOptions = core.SearchOptions

type queryConfig struct {
	opts  core.SearchOptions
	stats bool
}

// WithOptions sets the query's whole cascade to o, replacing every
// cascade knob an earlier option set; a preset's expansion
// (PresetOptions) and a decoded request body are passed this way.
func WithOptions(o SearchOptions) QueryOption {
	return func(c *queryConfig) { c.opts = o }
}

// WithAlpha overrides α, the leaf candidates fetched per tree (§5.2.6;
// the built default is Options.Alpha). Raising it explores further
// along each Hilbert curve: more page reads, better recall.
func WithAlpha(alpha int) QueryOption {
	return func(c *queryConfig) { c.opts.Alpha = alpha }
}

// WithGamma overrides γ, the per-tree filter output size (§5.2.6; the
// built default is Options.Gamma). Raising it refines more candidates
// against raw vectors: more exact distance work, better MAP.
func WithGamma(gamma int) QueryOption {
	return func(c *queryConfig) { c.opts.Gamma = gamma }
}

// WithPtolemaic switches the Ptolemaic filter (§5.2.5) for this query:
// on buys MAP at the same I/O for roughly double the filtering CPU.
// Unlike the zero option, WithPtolemaic(false) forces the filter off
// even when the index was built with UsePtolemaic.
func WithPtolemaic(on bool) QueryOption {
	return func(c *queryConfig) { c.opts.Ptolemaic = &on }
}

// WithMaxCandidates caps κ, the deduplicated candidate union refined
// against raw vectors — a hard bound on per-query refinement I/O
// whatever the per-tree knobs are (0 = no cap, the default). On a
// sharded layout the budget is split across the N shards (floor
// division, floored at k per shard), so the whole query stays within
// roughly the requested ceiling rather than N times it.
func WithMaxCandidates(n int) QueryOption {
	return func(c *queryConfig) { c.opts.MaxCandidates = n }
}

// WithStats asks for the per-query work counters in Response.Stats;
// without it Stats is nil.
func WithStats() QueryOption {
	return func(c *queryConfig) { c.stats = true }
}

// Response is one query's answer: the approximate k nearest neighbours
// (nearest first) and, when WithStats was given, the work counters with
// the effective cascade echoed back.
type Response struct {
	Results []Result
	Stats   *Stats
}

// Query answers a kANN query with per-query tuning. With no options it
// runs the parameters the index was built with; options override the
// filter cascade for this request only:
//
//	resp, err := idx.Query(ctx, q, 10, hdindex.WithAlpha(8192), hdindex.WithStats())
//
// Options are validated up front (ErrBadOptions) and never persisted —
// the same index serves every operating point of the recall/latency
// frontier concurrently.
func (i *Index) Query(ctx context.Context, q []float32, k int, opts ...QueryOption) (Response, error) {
	cfg := resolve(opts)
	res, st, err := i.query(ctx, q, k, cfg.opts)
	if err != nil {
		return Response{}, err
	}
	resp := Response{Results: res}
	if cfg.stats {
		resp.Stats = st
	}
	return resp, nil
}

// QueryBatch answers many queries concurrently with one shared option
// set, preserving input order. Options are resolved and validated once
// for the whole batch, an empty one included, and so are the queries'
// dimensionalities, so a bad option set or a malformed query deep in the
// batch never burns the fan-out ahead of it. The batch's queries are
// parts idle CPUs join (fanout.Each); cancellation or the first error
// stops the remaining queries promptly. Each Response carries its own
// Stats when WithStats is given.
func (i *Index) QueryBatch(ctx context.Context, queries [][]float32, k int, opts ...QueryOption) ([]Response, error) {
	cfg := resolve(opts)
	res, stats, err := i.queryBatch(ctx, queries, k, cfg.opts)
	if err != nil {
		return nil, err
	}
	out := make([]Response, len(res))
	for qi := range res {
		out[qi] = Response{Results: res[qi]}
		if cfg.stats {
			out[qi].Stats = stats[qi]
		}
	}
	return out, nil
}

// resolve applies a query's options to the zero configuration.
func resolve(opts []QueryOption) queryConfig {
	var cfg queryConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// query runs one query on every shard with the same options (the
// cascade is a per-query property, not a per-shard one) and merges the
// shards' local top-k answers (shard.Merge). The scatter counts as one
// query, and its shards are parts idle CPUs join (fanout.Each).
// Cancellation propagates into each shard's query loop, and the first
// shard error cancels the rest of the scatter.
//
// A 1-shard index returns exactly what its one shard does, and with
// exhaustive filter parameters an N-shard index returns the exact
// global kNN.
func (i *Index) query(ctx context.Context, q []float32, k int, o core.SearchOptions) ([]Result, *Stats, error) {
	n := len(i.shards)
	if n == 1 {
		// Global and local ids coincide; skip the merge entirely.
		return i.shards[0].Query(ctx, q, k, o)
	}
	if dim := i.Dim(); len(q) != dim {
		return nil, nil, fmt.Errorf("%w: query has %d dims, index has %d", core.ErrDimMismatch, len(q), dim)
	}
	var err error
	if o.MaxCandidates, err = shard.SplitMaxCandidates(o.MaxCandidates, k, n); err != nil {
		return nil, nil, err
	}

	ctx, leave := fanout.Enter(ctx)
	defer leave()
	answers := make([]shard.Reply, n)
	replies := make([]*shard.Reply, n)
	err = fanout.Each(ctx, n, func(ctx context.Context, s int) error {
		res, st, err := i.shards[s].Query(ctx, q, k, o)
		if err != nil {
			return err
		}
		answers[s] = shard.Reply{Results: res, Stats: st}
		replies[s] = &answers[s]
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	res, st := shard.Merge(k, replies)
	return res, st, nil
}

// queryBatch is QueryBatch on the index's shards: a 1-shard index's
// batch is its shard's, an N-shard index's each query of the batch
// scatter-gathers across the shards (query).
func (i *Index) queryBatch(ctx context.Context, queries [][]float32, k int, o core.SearchOptions) ([][]Result, []*Stats, error) {
	if len(i.shards) == 1 {
		return i.shards[0].QueryBatch(ctx, queries, k, o)
	}
	// Every shard shares the built params, so shard 0 validates for all.
	if err := i.shards[0].ValidateOptions(k, o); err != nil {
		return nil, nil, err
	}
	dim := i.Dim()
	for qi, q := range queries {
		if len(q) != dim {
			return nil, nil, fmt.Errorf("%w: query %d has %d dims, index has %d", core.ErrDimMismatch, qi, len(q), dim)
		}
	}
	ctx, leave := fanout.Enter(ctx)
	defer leave()
	res := make([][]Result, len(queries))
	stats := make([]*Stats, len(queries))
	err := fanout.Each(ctx, len(queries), func(ctx context.Context, qi int) error {
		var err error
		res[qi], stats[qi], err = i.query(ctx, queries[qi], k, o)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return res, stats, nil
}
