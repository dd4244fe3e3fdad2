package core

import (
	"context"
	"fmt"
	"testing"

	"github.com/hd-index/hdindex/internal/data"
	"github.com/hd-index/hdindex/internal/vecmath"
)

// BenchmarkRefinePages reports what the store layout is for: how many
// distinct vectors.pg pages one query's refinement touches, with the
// store in id order (the layout before the slot space), in tree-0 key
// order, and — on SIFT-like data, the only integer-valued shape — in
// tree-0 key order with byte records (what Build writes there), at the
// benchmark's cold-refine cascade (α = γ = 512). Every generator in
// internal/data but Uniform is a Gaussian mixture, whose clusters any
// space-filling-curve order packs well; Uniform has no clusters to pack
// and is the honest floor. The timed loop is the plain query; the page
// counts are computed once, off the clock.
func BenchmarkRefinePages(b *testing.B) {
	const n, nq = 50_000, 100
	type layout struct {
		name string
		storeLayout
	}
	idOrder, tree0 := layout{"id-order", layoutIDOrder}, layout{"tree0-order", layoutTree0}
	shapes := []struct {
		name    string
		ds      *data.Dataset
		layouts []layout
	}{
		{"sift-128d", data.SIFTLike(n, 7), []layout{idOrder, {"tree0-order", layoutTree0Float}, {"tree0-order-bytes", layoutTree0}}},
		{"audio-192d", data.AudioLike(n, 7), []layout{idOrder, tree0}},
		{"glove-100d", data.GloveLike(n, 7), []layout{idOrder, tree0}},
		{"uniform-128d", data.Uniform(n, 128, 0, 1, 7), []layout{idOrder, tree0}},
	}
	for _, sh := range shapes {
		queries := sh.ds.PerturbedQueries(nq, 0.02, 8)
		for _, l := range sh.layouts {
			b.Run(fmt.Sprintf("%s/%s", sh.name, l.name), func(b *testing.B) {
				p := Params{Omega: 8, Alpha: 512, Gamma: 512, Seed: 1}
				ix, err := build(context.Background(), b.TempDir(), sh.ds.Vectors, p, l.storeLayout)
				if err != nil {
					b.Fatal(err)
				}
				defer ix.Close()
				var pages, cands int
				for _, q := range queries {
					p, c := refinePages(b, ix, q)
					pages, cands = pages+p, cands+c
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := ix.Query(context.Background(), queries[i%nq], 10, SearchOptions{}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(pages)/nq, "pages/query")
				b.ReportMetric(float64(cands)/nq, "candidates/query")
			})
		}
	}
}

// refinePages runs the per-tree stage of one query and counts its
// distinct candidates and the distinct vectors.pg pages their records
// occupy, as the store lays them out.
func refinePages(tb testing.TB, ix *Index, q []float32) (pages, candidates int) {
	tb.Helper()
	plan, err := ix.params.planFor(10, SearchOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	qdist := make([]float64, ix.params.M)
	for r, rv := range ix.refs {
		qdist[r] = vecmath.Dist(q, rv)
	}
	slots, touched := map[uint64]bool{}, map[uint64]bool{}
	for t := 0; t < ix.params.Tau; t++ {
		found, _, err := ix.searchTree(context.Background(), t, q, qdist, nil, plan)
		if err != nil {
			tb.Fatal(err)
		}
		for _, slot := range found {
			if slots[slot] {
				continue
			}
			slots[slot] = true
			first, last := ix.vectors.Span(slot)
			for pg := first; pg <= last; pg++ {
				touched[uint64(pg)] = true
			}
		}
	}
	return len(touched), len(slots)
}
