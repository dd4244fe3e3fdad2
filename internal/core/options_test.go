package core

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"github.com/hd-index/hdindex/internal/data"
)

func boolp(b bool) *bool { return &b }

func TestPlanForDefaults(t *testing.T) {
	p := Params{Tau: 4, Omega: 8, M: 4, Alpha: 256, Gamma: 64, Seed: 1}
	ix, _, _ := buildSmall(t, 500, p)
	plan, err := ix.params.planFor(10, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bp := ix.params
	if plan.alpha != bp.Alpha || plan.beta != bp.Beta || plan.gamma != bp.Gamma ||
		plan.ptolemaic != bp.UsePtolemaic || plan.maxCandidates != 0 {
		t.Fatalf("zero options resolved to %+v, built params %+v", plan, bp)
	}
}

// An explicit α below the built γ must pull the inherited cascade down
// with it rather than fail: unset knobs clamp, explicit knobs don't.
func TestPlanForClampsInheritedCascade(t *testing.T) {
	p := Params{Tau: 4, Omega: 8, M: 4, Alpha: 256, Gamma: 64, Seed: 1}
	ix, _, _ := buildSmall(t, 500, p)
	plan, err := ix.params.planFor(10, SearchOptions{Alpha: 32})
	if err != nil {
		t.Fatal(err)
	}
	if plan.alpha != 32 || plan.beta != 32 || plan.gamma != 32 {
		t.Fatalf("alpha=32 resolved to %+v, want 32/32/32", plan)
	}

	// Widening past the built cascade must also work: an explicit α
	// re-derives β = α the way a fresh build would, so an explicit γ
	// above the BUILT β (256) is accepted exactly as a rebuild with
	// these knobs would accept it.
	plan, err = ix.params.planFor(10, SearchOptions{Alpha: 1024, Gamma: 512})
	if err != nil {
		t.Fatal(err)
	}
	if plan.alpha != 1024 || plan.beta != 1024 || plan.gamma != 512 {
		t.Fatalf("alpha=1024 gamma=512 resolved to %+v, want 1024/1024/512", plan)
	}
	// γ alone may widen up to the effective α when the Ptolemaic
	// filter is off (β is unused and resolves to α).
	plan, err = ix.params.planFor(10, SearchOptions{Gamma: 200})
	if err != nil {
		t.Fatal(err)
	}
	if plan.gamma != 200 || plan.beta != 256 {
		t.Fatalf("gamma=200 resolved to %+v, want gamma=200 beta=256", plan)
	}
}

func TestPlanForRejectsBadOptions(t *testing.T) {
	p := Params{Tau: 4, Omega: 8, M: 4, Alpha: 256, Gamma: 64, Seed: 1}
	ix, _, _ := buildSmall(t, 500, p)
	cases := []struct {
		name string
		k    int
		o    SearchOptions
	}{
		{"k<1", 0, SearchOptions{}},
		{"negative alpha", 10, SearchOptions{Alpha: -1}},
		{"negative gamma", 10, SearchOptions{Gamma: -5}},
		{"huge alpha", 10, SearchOptions{Alpha: maxKnob + 1}},
		{"gamma>alpha", 10, SearchOptions{Alpha: 64, Gamma: 128}},
		{"beta>alpha", 10, SearchOptions{Alpha: 64, Beta: 128}},
		{"gamma>beta", 10, SearchOptions{Beta: 64, Gamma: 128}},
		{"alpha<k", 50, SearchOptions{Alpha: 49}},
		{"gamma<k", 50, SearchOptions{Gamma: 49}},
		{"maxcand<k", 50, SearchOptions{MaxCandidates: 10}},
	}
	for _, tc := range cases {
		if _, err := ix.params.planFor(tc.k, tc.o); !errors.Is(err, ErrBadOptions) {
			t.Errorf("%s: err = %v, want ErrBadOptions", tc.name, err)
		}
		// The same rejection must surface through Query, before any
		// tree walk.
		q := make([]float32, ix.Dim())
		if _, _, err := ix.Query(context.Background(), q, tc.k, tc.o); !errors.Is(err, ErrBadOptions) {
			t.Errorf("%s: Query err = %v, want ErrBadOptions", tc.name, err)
		}
	}
}

func TestQueryDimMismatchTyped(t *testing.T) {
	p := Params{Tau: 4, Omega: 8, M: 4, Alpha: 128, Gamma: 32, Seed: 1}
	ix, _, _ := buildSmall(t, 400, p)
	if _, _, err := ix.Query(context.Background(), make([]float32, 7), 5, SearchOptions{}); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("query err = %v, want ErrDimMismatch", err)
	}
	if _, _, err := ix.QueryBatch(context.Background(), [][]float32{make([]float32, 7)}, 5, SearchOptions{}); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("batch err = %v, want ErrDimMismatch", err)
	}
	if _, err := ix.Insert(make([]float32, 7)); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("insert err = %v, want ErrDimMismatch", err)
	}
}

// Query with zero options runs, and echoes, the built cascade.
func TestQueryZeroOptionsEchoesBuiltCascade(t *testing.T) {
	p := Params{Tau: 4, Omega: 8, M: 6, Alpha: 256, Gamma: 64, Seed: 7}
	ix, ds, _ := buildSmall(t, 1500, p)
	for qi, q := range ds.PerturbedQueries(10, 0.02, 3) {
		_, st, err := ix.Query(context.Background(), q, 10, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if st.Alpha != p.Alpha || st.Gamma != p.Gamma || st.Ptolemaic {
			t.Fatalf("query %d: stats echo %+v, want built cascade", qi, st)
		}
	}
}

// A per-query override must be bit-identical to querying an index BUILT
// with those very parameters: the tree bytes depend only on the data,
// so the cascade is a pure query-time property. This is the "no rebuild
// per operating point" guarantee.
func TestQueryOverrideMatchesRebuiltIndex(t *testing.T) {
	ds := data.Generate(data.Config{Name: "t", N: 1200, Dim: 32, Clusters: 6, Lo: 0, Hi: 1, Seed: 42})
	queries := ds.PerturbedQueries(8, 0.01, 43)
	base := Params{Tau: 4, Omega: 8, M: 5, Alpha: 128, Gamma: 32, Seed: 9}
	hi := base
	hi.Alpha, hi.Beta, hi.Gamma = 384, 0, 96 // Beta re-defaults to the new alpha

	ixBase, err := Build(filepath.Join(t.TempDir(), "base"), ds.Vectors, base)
	if err != nil {
		t.Fatal(err)
	}
	defer ixBase.Close()
	ixHi, err := Build(filepath.Join(t.TempDir(), "hi"), ds.Vectors, hi)
	if err != nil {
		t.Fatal(err)
	}
	defer ixHi.Close()

	for _, pto := range []*bool{nil, boolp(true)} {
		// Beta is explicit: unset it would clamp to the BUILT beta
		// (128), while the rebuilt index defaults beta to its own
		// alpha (384).
		o := SearchOptions{Alpha: 384, Beta: 384, Gamma: 96, Ptolemaic: pto}
		for qi, q := range queries {
			got, gotSt, err := ixBase.Query(context.Background(), q, 10, o)
			if err != nil {
				t.Fatal(err)
			}
			want, wantSt, err := ixHi.Query(context.Background(), q, 10, SearchOptions{Ptolemaic: pto})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("pto=%v query %d: %d results vs rebuilt %d", pto != nil, qi, len(got), len(want))
			}
			for i := range want {
				if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
					t.Fatalf("pto=%v query %d rank %d: override %+v vs rebuilt %+v", pto != nil, qi, i, got[i], want[i])
				}
			}
			if gotSt.Candidates != wantSt.Candidates {
				t.Fatalf("pto=%v query %d: override saw %d candidates, rebuilt %d",
					pto != nil, qi, gotSt.Candidates, wantSt.Candidates)
			}
		}
	}
}

// The per-query knobs must move their observables monotonically:
// raising γ at fixed α can only grow the candidate union (each tree's
// top-γ set is a superset of its top-γ′ for γ′ < γ), and raising α can
// only grow the leaf entries fetched. Distinct candidates are NOT
// monotone in α alone — a wider α at fixed γ lets the trees agree on
// the same best objects, shrinking the deduplicated union — which is
// exactly why the stats echo the effective cascade.
func TestQueryOverridesMonotoneCandidates(t *testing.T) {
	p := Params{Tau: 4, Omega: 8, M: 5, Alpha: 512, Gamma: 128, Seed: 11}
	ix, ds, _ := buildSmall(t, 2000, p)
	queries := ds.PerturbedQueries(6, 0.02, 5)

	sum := func(o SearchOptions) (candidates, treeEntries int) {
		for _, q := range queries {
			_, st, err := ix.Query(context.Background(), q, 10, o)
			if err != nil {
				t.Fatal(err)
			}
			candidates += st.Candidates
			treeEntries += st.TreeEntries
		}
		return candidates, treeEntries
	}

	prevEntries := -1
	seen := make(map[int]bool)
	for _, alpha := range []int{32, 128, 512} {
		cand, entries := sum(SearchOptions{Alpha: alpha})
		if entries < prevEntries {
			t.Fatalf("alpha=%d: %d tree entries < previous %d", alpha, entries, prevEntries)
		}
		if cand <= 0 {
			t.Fatalf("alpha=%d: no candidates", alpha)
		}
		seen[cand] = true
		prevEntries = entries
	}
	if len(seen) < 2 {
		t.Fatalf("alpha overrides did not change the candidate count: %v", seen)
	}
	prevCand := -1
	for _, gamma := range []int{16, 64, 128} {
		cand, _ := sum(SearchOptions{Gamma: gamma})
		if cand < prevCand {
			t.Fatalf("gamma=%d: %d candidates < previous %d", gamma, cand, prevCand)
		}
		if cand <= 0 {
			t.Fatalf("gamma=%d: no candidates", gamma)
		}
		prevCand = cand
	}
}

// WithMaxCandidates caps κ exactly, and the capped query still returns
// k results.
func TestQueryMaxCandidatesCapsKappa(t *testing.T) {
	p := Params{Tau: 4, Omega: 8, M: 5, Alpha: 512, Gamma: 128, Seed: 13}
	ix, ds, _ := buildSmall(t, 2000, p)
	for _, q := range ds.PerturbedQueries(5, 0.02, 7) {
		_, unbounded, err := ix.Query(context.Background(), q, 10, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cap := unbounded.Candidates / 2
		if cap < 10 {
			t.Skip("dataset too small for a meaningful cap")
		}
		res, st, err := ix.Query(context.Background(), q, 10, SearchOptions{MaxCandidates: cap})
		if err != nil {
			t.Fatal(err)
		}
		if st.Candidates != cap {
			t.Fatalf("capped at %d but refined %d", cap, st.Candidates)
		}
		if len(res) != 10 {
			t.Fatalf("capped query returned %d results", len(res))
		}
	}
}

// QueryBatch shares one option set and returns per-query stats in
// order, each echoing the effective cascade.
func TestQueryBatchStats(t *testing.T) {
	p := Params{Tau: 4, Omega: 8, M: 5, Alpha: 256, Gamma: 64, Seed: 17}
	ix, ds, _ := buildSmall(t, 1200, p)
	queries := ds.PerturbedQueries(6, 0.02, 9)
	res, stats, err := ix.QueryBatch(context.Background(), queries, 5, SearchOptions{Alpha: 96, Gamma: 48})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(queries) || len(stats) != len(queries) {
		t.Fatalf("%d results, %d stats for %d queries", len(res), len(stats), len(queries))
	}
	for qi, q := range queries {
		want, wantSt, err := ix.Query(context.Background(), q, 5, SearchOptions{Alpha: 96, Gamma: 48})
		if err != nil {
			t.Fatal(err)
		}
		if len(res[qi]) != len(want) {
			t.Fatalf("query %d: batch %d results, single %d", qi, len(res[qi]), len(want))
		}
		for i := range want {
			if res[qi][i] != want[i] {
				t.Fatalf("query %d rank %d: batch %+v, single %+v", qi, i, res[qi][i], want[i])
			}
		}
		if stats[qi].Alpha != 96 || stats[qi].Gamma != 48 {
			t.Fatalf("query %d: stats echo %+v", qi, stats[qi])
		}
		if stats[qi].Candidates != wantSt.Candidates {
			t.Fatalf("query %d: batch candidates %d, single %d", qi, stats[qi].Candidates, wantSt.Candidates)
		}
	}
	// A bad option set fails the whole batch up front.
	if _, _, err := ix.QueryBatch(context.Background(), queries, 5, SearchOptions{Alpha: 8, Gamma: 16}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("bad batch options: %v", err)
	}
}

// QueryStats.Add sums every work counter and phase; the cascade echo is
// adopted from the first block added and then kept.
func TestQueryStatsAdd(t *testing.T) {
	a := QueryStats{
		Candidates: 1, TreeEntries: 2, PageReads: 3, PageHits: 4, PageMisses: 5,
		ExactDistances: 6, MemtableScanned: 7,
		Alpha: 128, Beta: 64, Gamma: 32, Ptolemaic: true, Degraded: true,
	}
	a.Phases[0], a.Phases[len(a.Phases)-1] = 10, 20
	b := QueryStats{
		Candidates: 10, TreeEntries: 20, PageReads: 30, PageHits: 40, PageMisses: 50,
		ExactDistances: 60, MemtableScanned: 70, Alpha: 999, Gamma: 9,
	}
	b.Phases[0] = 5
	sum := QueryStats{
		Candidates: 11, TreeEntries: 22, PageReads: 33, PageHits: 44, PageMisses: 55,
		ExactDistances: 66, MemtableScanned: 77,
		Alpha: 128, Beta: 64, Gamma: 32, Ptolemaic: true, Degraded: true,
	}
	sum.Phases[0], sum.Phases[len(sum.Phases)-1] = 15, 20
	for _, tc := range []struct {
		name string
		add  []QueryStats
		want QueryStats
	}{
		{"nothing added", nil, QueryStats{}},
		{"one block is copied, echo included", []QueryStats{a}, a},
		{"counters sum, the first echo wins", []QueryStats{a, b}, sum},
		{"an empty block neither counts nor echoes", []QueryStats{{}, a, {}}, a},
	} {
		var got QueryStats
		for _, st := range tc.add {
			got.Add(st)
		}
		if got != tc.want {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
