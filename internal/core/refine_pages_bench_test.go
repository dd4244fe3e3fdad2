package core

import (
	"context"
	"fmt"
	"testing"

	"github.com/hd-index/hdindex/internal/data"
	"github.com/hd-index/hdindex/internal/vecmath"
)

// BenchmarkRefinePages reports what the slot space is for: how many
// distinct vectors.pg pages one query's refinement touches, with the
// store in tree-0 key order (what Build writes) against id order (the
// layout before), at the benchmark's cold-refine cascade (α = γ = 512).
// Every generator in internal/data but Uniform is a Gaussian mixture,
// whose clusters any space-filling-curve order packs well; Uniform has no
// clusters to pack and is the honest floor. The timed loop is the plain
// query; the page counts are computed once, off the clock.
func BenchmarkRefinePages(b *testing.B) {
	const n, nq = 50_000, 100
	shapes := []struct {
		name string
		ds   *data.Dataset
	}{
		{"audio-192d", data.AudioLike(n, 7)},
		{"glove-100d", data.GloveLike(n, 7)},
		{"uniform-128d", data.Uniform(n, 128, 0, 1, 7)},
	}
	for _, sh := range shapes {
		queries := sh.ds.PerturbedQueries(nq, 0.02, 8)
		for _, clustered := range []bool{false, true} {
			layout := map[bool]string{false: "id-order", true: "tree0-order"}[clustered]
			b.Run(fmt.Sprintf("%s/%s", sh.name, layout), func(b *testing.B) {
				p := Params{Omega: 8, Alpha: 512, Gamma: 512, Seed: 1}
				ix, err := build(context.Background(), b.TempDir(), sh.ds.Vectors, p, clustered)
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
// occupy.
func refinePages(tb testing.TB, ix *Index, q []float32) (pages, candidates int) {
	tb.Helper()
	plan, err := ix.planFor(10, SearchOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	qdist := make([]float64, ix.params.M)
	for r, rv := range ix.refs {
		qdist[r] = vecmath.Dist(q, rv)
	}
	slots, touched := map[uint64]bool{}, map[int64]bool{}
	rec, ps := int64(4*ix.nu), int64(ix.vectors.Pager().PageSize())
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
			for pg := int64(slot) * rec / ps; pg <= (int64(slot)*rec+rec-1)/ps; pg++ {
				touched[pg] = true
			}
		}
	}
	return len(touched), len(slots)
}
