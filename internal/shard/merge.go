package shard

import (
	"fmt"

	"github.com/hd-index/hdindex/internal/core"
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
