package shard_test

import (
	"errors"
	"reflect"
	"testing"

	"github.com/hd-index/hdindex/internal/core"
	"github.com/hd-index/hdindex/internal/shard"
)

func TestMerge(t *testing.T) {
	res := func(pairs ...float64) []core.Result { // (local id, dist) pairs
		out := make([]core.Result, 0, len(pairs)/2)
		for i := 0; i < len(pairs); i += 2 {
			out = append(out, core.Result{ID: uint64(pairs[i]), Dist: pairs[i+1]})
		}
		return out
	}
	stats := func(candidates, alpha int) *core.QueryStats {
		return &core.QueryStats{Candidates: candidates, TreeEntries: 10 * candidates, Alpha: alpha, Gamma: alpha / 4}
	}
	cases := []struct {
		name      string
		k         int
		replies   []*shard.Reply
		want      []core.Result // global ids
		wantStats core.QueryStats
	}{
		{
			name: "two shards interleave by distance",
			k:    3,
			replies: []*shard.Reply{
				{Results: res(0, 0.1, 1, 0.4), Stats: stats(5, 64)},
				{Results: res(0, 0.2, 1, 0.3), Stats: stats(7, 64)},
			},
			// shard 0 local 0,1 -> global 0,2; shard 1 local 0,1 -> global 1,3.
			want:      res(0, 0.1, 1, 0.2, 3, 0.3),
			wantStats: core.QueryStats{Candidates: 12, TreeEntries: 120, Alpha: 64, Gamma: 16},
		},
		{
			name: "nil reply contributes nothing but keeps its ordinal",
			k:    2,
			replies: []*shard.Reply{
				nil,
				{Results: res(2, 0.5), Stats: stats(3, 32)},
				nil,
			},
			want:      res(7, 0.5), // local 2 of shard 1 of 3
			wantStats: core.QueryStats{Candidates: 3, TreeEntries: 30, Alpha: 32, Gamma: 8},
		},
		{
			name: "cross-shard distance ties order by global id",
			k:    3,
			replies: []*shard.Reply{
				{Results: res(1, 0.5, 2, 0.5)}, // global 2, 4
				{Results: res(0, 0.5, 1, 0.5)}, // global 1, 3
			},
			want: res(1, 0.5, 2, 0.5, 3, 0.5),
		},
		{
			name: "fewer than k results in total",
			k:    10,
			replies: []*shard.Reply{
				{Results: res(0, 0.3)},
				{Results: res()},
			},
			want: res(0, 0.3),
		},
		{
			name: "cascade echo from the lowest answering ordinal",
			k:    1,
			replies: []*shard.Reply{
				nil,
				{Results: res(0, 0.9)}, // answered without stats
				{Results: res(0, 0.8), Stats: &core.QueryStats{Candidates: 1, Alpha: 128, Beta: 64, Gamma: 32, Ptolemaic: true, Degraded: true}},
				{Results: res(0, 0.7), Stats: stats(2, 999)},
			},
			want:      res(3, 0.7),
			wantStats: core.QueryStats{Candidates: 3, TreeEntries: 20, Alpha: 128, Beta: 64, Gamma: 32, Ptolemaic: true, Degraded: true},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, st := shard.Merge(tc.k, tc.replies)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("results %+v, want %+v", got, tc.want)
			}
			if *st != tc.wantStats {
				t.Errorf("stats %+v, want %+v", *st, tc.wantStats)
			}
		})
	}
}

func TestSplitMaxCandidates(t *testing.T) {
	cases := []struct {
		name     string
		mc, k, n int
		want     int
		bad      bool
	}{
		{"no cap stays no cap", 0, 10, 4, 0, false},
		{"floor division", 103, 10, 4, 25, false},
		{"mc/N below k floors at k", 30, 10, 4, 10, false},
		{"mc == k", 10, 10, 4, 10, false},
		{"mc < k", 9, 10, 4, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := shard.SplitMaxCandidates(tc.mc, tc.k, tc.n)
			if tc.bad != errors.Is(err, core.ErrBadOptions) || (err != nil) != tc.bad {
				t.Fatalf("err = %v, want ErrBadOptions: %v", err, tc.bad)
			}
			if got != tc.want {
				t.Errorf("per-shard cap %d, want %d", got, tc.want)
			}
		})
	}
}
