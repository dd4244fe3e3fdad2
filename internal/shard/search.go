package shard

import (
	"context"
	"fmt"

	"github.com/hd-index/hdindex/internal/core"
	"github.com/hd-index/hdindex/internal/fanout"
	"github.com/hd-index/hdindex/internal/topk"
)

// Reply is one shard's answer to a scattered query: its local top-k
// (local ids) and, when the shard reported them, its work counters.
type Reply struct {
	Results []core.Result
	Stats   *core.QueryStats
}

// GlobalID maps local id l of shard ordinal in an n-shard layout back
// to the global id of the round-robin striped build: global g was
// routed to shard g mod n at local slot g div n.
func GlobalID(ordinal, n int, local uint64) uint64 {
	return local*uint64(n) + uint64(ordinal)
}

// SplitMaxCandidates turns a query's κ cap into the per-shard cap of an
// n-shard scatter. The cap is a per-QUERY refinement budget: floor
// division keeps the shards' sum within it, and each shard keeps at
// least k so the merge still sees a full local top-k. The k check runs
// here because the floored per-shard cap would otherwise silently
// legalise a cap < k. 0 (no cap) stays 0.
func SplitMaxCandidates(mc, k, n int) (int, error) {
	if mc <= 0 {
		return mc, nil
	}
	if mc < k {
		return 0, fmt.Errorf("%w: max_candidates=%d < k=%d", core.ErrBadOptions, mc, k)
	}
	return max(k, mc/n), nil
}

// Merge gathers one query's per-shard replies, indexed by ordinal, into
// the global answer: local ids mapped to global ids, the n·k candidates
// merged through one bounded top-k heap (nearest first, distance ties
// by id), work counters summed. Every shard resolves the same options
// against the same built params, so the cascade echo is taken from the
// lowest answering ordinal. A nil reply means the shard did not answer
// (the cluster coordinator's partial responses) and contributes
// nothing; so does a nil Stats.
//
// Because each shard's answer is exact over the candidates it refined,
// merging per-shard top-k lists loses nothing: the global k nearest of
// the union of refined candidates all appear in their own shard's
// top-k.
func Merge(k int, replies []*Reply) ([]core.Result, *core.QueryStats) {
	best := topk.New(k)
	agg := &core.QueryStats{}
	for i, rep := range replies {
		if rep == nil {
			continue
		}
		for _, r := range rep.Results {
			best.Push(GlobalID(i, len(replies), r.ID), r.Dist)
		}
		if rep.Stats != nil {
			agg.Add(*rep.Stats)
		}
	}
	items := best.Items()
	out := make([]core.Result, len(items))
	for i, it := range items {
		out[i] = core.Result{ID: it.ID, Dist: it.Dist}
	}
	return out, agg
}

// Query scatter-gathers the query with per-query cascade overrides:
// the same options apply to every shard (the cascade is a per-query
// property, not a per-shard one), every shard answers its local top-k,
// and Merge folds the answers. The scatter counts as one query, and its
// shards are parts idle CPUs join (fanout.Each). Cancellation propagates
// into each shard's query loop, and the first shard error cancels the
// rest of the scatter.
//
// A 1-shard layout returns exactly what its one core index does, and
// with exhaustive filter parameters an N-shard layout returns the exact
// global kNN.
func (s *Sharded) Query(ctx context.Context, q []float32, k int, o core.SearchOptions) ([]core.Result, *core.QueryStats, error) {
	n := len(s.shards)
	if n == 1 {
		// Global and local ids coincide; skip the merge entirely.
		return s.shards[0].Query(ctx, q, k, o)
	}
	if len(q) != s.man.Dim {
		return nil, nil, fmt.Errorf("%w: query has %d dims, index has %d", core.ErrDimMismatch, len(q), s.man.Dim)
	}
	var err error
	if o.MaxCandidates, err = SplitMaxCandidates(o.MaxCandidates, k, n); err != nil {
		return nil, nil, err
	}

	ctx, leave := fanout.Enter(ctx)
	defer leave()
	answers := make([]Reply, n)
	replies := make([]*Reply, n)
	err = fanout.Each(ctx, n, func(ctx context.Context, i int) error {
		res, st, err := s.shards[i].Query(ctx, q, k, o)
		if err != nil {
			return err
		}
		answers[i] = Reply{Results: res, Stats: st}
		replies[i] = &answers[i]
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	res, st := Merge(k, replies)
	return res, st, nil
}

// QueryBatch spreads the batch's queries onto idle CPUs (fanout.Each)
// with one option set shared by the whole batch; each query then
// scatter-gathers across shards.
// Results and work counters come back in input order. Options and
// dimensionalities are validated up front, mirroring core.QueryBatch,
// so a bad option set or a malformed query deep in the batch never
// burns the fan-out ahead of it. Cancellation or the first error stops
// the remaining queries promptly. A 1-shard layout is core.QueryBatch.
func (s *Sharded) QueryBatch(ctx context.Context, queries [][]float32, k int, o core.SearchOptions) ([][]core.Result, []*core.QueryStats, error) {
	if len(s.shards) == 1 {
		return s.shards[0].QueryBatch(ctx, queries, k, o)
	}
	if len(queries) == 0 {
		return nil, nil, nil
	}
	// Every shard shares the built params, so shard 0 validates for all.
	if err := s.shards[0].ValidateOptions(k, o); err != nil {
		return nil, nil, err
	}
	for i, q := range queries {
		if len(q) != s.man.Dim {
			return nil, nil, fmt.Errorf("%w: query %d has %d dims, index has %d", core.ErrDimMismatch, i, len(q), s.man.Dim)
		}
	}
	ctx, leave := fanout.Enter(ctx)
	defer leave()
	out := make([][]core.Result, len(queries))
	stats := make([]*core.QueryStats, len(queries))
	err := fanout.Each(ctx, len(queries), func(ctx context.Context, qi int) error {
		var err error
		out[qi], stats[qi], err = s.Query(ctx, queries[qi], k, o)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return out, stats, nil
}
