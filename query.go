package hdindex

import (
	"context"

	"github.com/hd-index/hdindex/internal/core"
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

type queryConfig struct {
	opts  core.SearchOptions
	stats bool
}

// WithAlpha overrides α, the leaf candidates fetched per tree (§5.2.6;
// the built default is Options.Alpha). Raising it explores further
// along each Hilbert curve: more page reads, better recall.
func WithAlpha(alpha int) QueryOption {
	return func(c *queryConfig) { c.opts.Alpha = alpha }
}

// WithBeta overrides β, the triangular-filter survivor count feeding
// the Ptolemaic filter (§5.2.5). It only matters when the Ptolemaic
// filter is active for the query.
func WithBeta(beta int) QueryOption {
	return func(c *queryConfig) { c.opts.Beta = beta }
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
	return func(c *queryConfig) {
		if on {
			c.opts.Ptolemaic = core.PtolemaicOn
		} else {
			c.opts.Ptolemaic = core.PtolemaicOff
		}
	}
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

// WithDegrade requests the cheap cascade: when the query leaves the
// whole α/β/γ triple unset, α and γ shrink to a quarter of the built
// values (floored, never below k) so the query does a fraction of the
// I/O and refinement work. Queries that pin any cascade knob are
// unaffected — their explicit contract is honoured. The serving layer
// sets this under overload pressure (adaptive degradation);
// Stats.Degraded echoes whether a knob actually shrank.
func WithDegrade() QueryOption {
	return func(c *queryConfig) { c.opts.Degrade = true }
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
	var cfg queryConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	res, st, err := i.ix.Query(ctx, q, k, cfg.opts)
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
// for the whole batch; each Response carries its own Stats when
// WithStats is given.
func (i *Index) QueryBatch(ctx context.Context, queries [][]float32, k int, opts ...QueryOption) ([]Response, error) {
	var cfg queryConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	res, stats, err := i.ix.QueryBatch(ctx, queries, k, cfg.opts)
	if err != nil {
		return nil, err
	}
	out := make([]Response, len(res))
	for qi := range res {
		out[qi] = Response{Results: res[qi]}
		if cfg.stats && qi < len(stats) {
			out[qi].Stats = stats[qi]
		}
	}
	return out, nil
}
