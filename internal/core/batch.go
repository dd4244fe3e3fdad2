package core

import (
	"context"
	"fmt"

	"github.com/hd-index/hdindex/internal/fanout"
)

// QueryBatch answers many queries concurrently (across queries, not
// trees) — the natural shape for the §5.5 image-search workload, where
// one logical query fans out into N descriptor searches. The batch
// counts as one unit of work and spreads its queries onto idle CPUs
// (fanout.Each), so a batch that starts while every core is busy runs
// its queries in order on the caller; cancellation or the first
// per-query error stops the remaining work promptly and is returned.
// The same options apply to every query in the batch and are resolved
// and validated once, up front — a bad option set fails before any query
// runs. Results and per-query work counters are returned in input order.
func (ix *Index) QueryBatch(ctx context.Context, queries [][]float32, k int, o SearchOptions) ([][]Result, []*QueryStats, error) {
	// Validate once for the whole batch, an empty one included: options
	// (fail fast, before any tree walk) and dimensionality (so a malformed
	// query deep in the batch cannot waste the fan-out ahead of it).
	if _, err := ix.params.planFor(k, o); err != nil {
		return nil, nil, err
	}
	if len(queries) == 0 {
		return nil, nil, nil
	}
	for i, q := range queries {
		if len(q) != ix.nu {
			return nil, nil, fmt.Errorf("%w: query %d has %d dims, index has %d", ErrDimMismatch, i, len(q), ix.nu)
		}
	}
	ctx, leave := fanout.Enter(ctx)
	defer leave()
	out := make([][]Result, len(queries))
	stats := make([]*QueryStats, len(queries))
	err := fanout.Each(ctx, len(queries), func(ctx context.Context, qi int) error {
		var err error
		out[qi], stats[qi], err = ix.Query(ctx, queries[qi], k, o)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return out, stats, nil
}
