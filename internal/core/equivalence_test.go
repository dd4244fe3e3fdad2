package core

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/hd-index/hdindex/internal/topk"
	"github.com/hd-index/hdindex/internal/vecmath"
)

// naiveSearch is the pre-optimization refinement path, kept as the
// reference the hot path is proven against: map-based candidate dedup
// in tree order (no page-ordered sort), a full copying vector fetch per
// candidate, and an unbounded DistSq. The optimized path — epoch-array
// dedup, id-sorted zero-copy fetch, early-abandoning kernel — must
// return bit-identical Results and the same candidate count.
func naiveSearch(t *testing.T, ix *Index, q []float32, k int) ([]Result, int) {
	t.Helper()
	return naiveSearchWith(t, ix, q, k, SearchOptions{}, func(tr int, qdist []float64, plan searchPlan) []uint64 {
		ids, _, err := ix.searchTree(context.Background(), tr, q, qdist, nil, plan)
		if err != nil {
			t.Fatal(err)
		}
		return ids
	})
}

// naiveSearchWith is naiveSearch over any per-tree stage (tree returns
// one partition's surviving slots in filter rank order) and any cascade.
// It translates every candidate's slot to its id up front, where the hot
// path translates only what enters the top-k.
func naiveSearchWith(t *testing.T, ix *Index, q []float32, k int, o SearchOptions, tree func(tr int, qdist []float64, plan searchPlan) []uint64) ([]Result, int) {
	t.Helper()
	plan, err := ix.planFor(k, o)
	if err != nil {
		t.Fatal(err)
	}
	qdist := make([]float64, ix.params.M)
	for r, rv := range ix.refs {
		qdist[r] = vecmath.Dist(q, rv)
	}
	seen := make(map[uint64]struct{})
	var candidates []uint64
	for tr := 0; tr < ix.params.Tau; tr++ {
		for _, slot := range tree(tr, qdist, plan) {
			if _, ok := seen[slot]; !ok {
				seen[slot] = struct{}{}
				candidates = append(candidates, slot)
			}
		}
	}
	if plan.maxCandidates > 0 && len(candidates) > plan.maxCandidates {
		candidates = candidates[:plan.maxCandidates]
	}
	best := topk.New(k)
	for _, slot := range candidates {
		id, err := ix.slots.id(slot)
		if err != nil {
			t.Fatal(err)
		}
		if ix.deleted.has(slot) {
			continue
		}
		v, err := ix.vectors.Get(slot, nil)
		if err != nil {
			t.Fatal(err)
		}
		best.Push(id, vecmath.DistSq(q, v))
	}
	items := best.Items()
	out := make([]Result, len(items))
	for i, it := range items {
		out[i] = Result{ID: it.ID, Dist: math.Sqrt(it.Dist)}
	}
	return out, len(candidates)
}

func assertSameResults(t *testing.T, q int, got []Result, st *QueryStats, want []Result, wantCand int) {
	t.Helper()
	if st.Candidates != wantCand {
		t.Fatalf("query %d: optimized path saw %d candidates, naive %d", q, st.Candidates, wantCand)
	}
	if len(got) != len(want) {
		t.Fatalf("query %d: optimized returned %d results, naive %d", q, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			t.Fatalf("query %d rank %d: optimized %+v != naive %+v", q, i, got[i], want[i])
		}
	}
}

// Random clustered data: the common case.
func TestRefineEquivalenceRandom(t *testing.T) {
	p := Params{Tau: 4, Omega: 8, M: 6, Alpha: 256, Gamma: 64, Seed: 7}
	ix, ds, _ := buildSmall(t, 2000, p)
	queries := ds.PerturbedQueries(25, 0.02, 11)
	eachHelperCount(p.Tau, func(int) {
		for _, k := range []int{1, 5, 20} {
			for qi, q := range queries {
				want, wantCand := naiveSearch(t, ix, q, k)
				got, st, err := ix.Query(context.Background(), q, k, SearchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				assertSameResults(t, qi, got, st, want, wantCand)
			}
		}
	})
}

// Adversarial ties: every vector duplicated many times, queries sitting
// exactly on data points, so the top-k boundary is crowded with equal
// distances. The (Dist, ID) ordering of the top-k list is what makes
// the page-ordered (id-sorted) push order return the same set as the
// naive tree-order pushes.
func TestRefineEquivalenceAdversarialTies(t *testing.T) {
	const distinct, copies, dim = 30, 12, 16
	rng := rand.New(rand.NewSource(3))
	base := make([][]float32, distinct)
	for i := range base {
		v := make([]float32, dim)
		for d := range v {
			v[d] = rng.Float32()
		}
		base[i] = v
	}
	vectors := make([][]float32, 0, distinct*copies)
	for c := 0; c < copies; c++ {
		for _, v := range base {
			vectors = append(vectors, v) // shared backing is fine; Build copies into the store
		}
	}
	p := Params{Tau: 4, Omega: 8, M: 4, Alpha: 128, Gamma: 64, Seed: 5}
	ix, err := Build(filepath.Join(t.TempDir(), "ties"), vectors, p)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	for qi, q := range base {
		for _, k := range []int{1, copies - 1, copies + 3} {
			want, wantCand := naiveSearch(t, ix, q, k)
			got, st, err := ix.Query(context.Background(), q, k, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, qi, got, st, want, wantCand)
		}
	}
}

// Deletions must be skipped identically on both paths.
func TestRefineEquivalenceWithDeletes(t *testing.T) {
	p := Params{Tau: 4, Omega: 8, M: 4, Alpha: 256, Gamma: 64, Seed: 9}
	ix, ds, _ := buildSmall(t, 1500, p)
	defer ix.Close()
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 200; i++ {
		if err := ix.Delete(uint64(rng.Intn(1500))); err != nil {
			t.Fatal(err)
		}
	}
	queries := ds.PerturbedQueries(15, 0.02, 31)
	for qi, q := range queries {
		want, wantCand := naiveSearch(t, ix, q, 10)
		got, st, err := ix.Query(context.Background(), q, 10, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, qi, got, st, want, wantCand)
	}
}

// Enron-shaped records — vectors that straddle page boundaries — must
// take GetView's copying fallback and still answer identically. dim 32
// gives 128-byte records; a 192-byte page makes every third record
// span, mixing both fetch paths within single queries.
func TestRefineEquivalenceSpanningRecords(t *testing.T) {
	p := Params{Tau: 4, Omega: 8, M: 4, Alpha: 128, Gamma: 32, PageSize: 192, Seed: 13}
	ix, ds, _ := buildSmall(t, 800, p)
	defer ix.Close()
	queries := ds.PerturbedQueries(10, 0.02, 17)
	for qi, q := range queries {
		want, wantCand := naiveSearch(t, ix, q, 8)
		got, st, err := ix.Query(context.Background(), q, 8, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, qi, got, st, want, wantCand)
	}
}
