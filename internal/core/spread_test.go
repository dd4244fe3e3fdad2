package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/hd-index/hdindex/internal/bptree"
	"github.com/hd-index/hdindex/internal/data"
	"github.com/hd-index/hdindex/internal/fanout"
	"github.com/hd-index/hdindex/internal/iofault"
	"github.com/hd-index/hdindex/internal/leakcheck"
	"github.com/hd-index/hdindex/internal/pager"
)

// eachHelperCount runs fn at the two GOMAXPROCS values that bound how
// many helpers a query over tau trees recruits: 1, where none can be,
// and tau+1, where every tree walk and every refinement run gets one
// (nothing else in the test counts as query work). GOMAXPROCS is
// restored after each call, however fn ends.
func eachHelperCount(tau int, fn func(procs int)) {
	for _, procs := range []int{1, tau + 1} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			fn(procs)
		}()
	}
}

// requireSameWork fails unless two runs of one query did the same work.
func requireSameWork(t *testing.T, label string, got, want *QueryStats) {
	t.Helper()
	if got.Candidates != want.Candidates || got.ExactDistances != want.ExactDistances ||
		got.TreeEntries != want.TreeEntries || got.MemtableScanned != want.MemtableScanned {
		t.Fatalf("%s: work differs: %d candidates / %d distances / %d entries / %d memtable, want %d / %d / %d / %d",
			label, got.Candidates, got.ExactDistances, got.TreeEntries, got.MemtableScanned,
			want.Candidates, want.ExactDistances, want.TreeEntries, want.MemtableScanned)
	}
}

// A query answers the same however many helpers join it: results and
// every work counter, in the four cascade shapes and an exhaustive one,
// on a fresh index and beside deletes and a memtable. Sixteen vectors
// tie exactly at the k-th place of the centre query. Tree 0 scatters
// them over the store, so the exhaustive query's refinement runs cut
// through the tie with slot order disagreeing with id order: a merge of
// the runs' lists by distance alone would keep the ties of the earlier
// runs, not the smallest ids.
func TestQueryIdenticalAcrossHelperCounts(t *testing.T) {
	const n, k = 3000, 5
	ds := data.Generate(data.Config{Name: "helpers", N: n, Dim: 32, Clusters: 8, Lo: 0, Hi: 1, Seed: 41})
	centre, group := tieGroup(32, 8, 0.5, 0.125)
	var tieIDs []uint64
	for j, v := range group {
		id := 2990 - 181*j // descending, so slot order tends to invert id order
		ds.Vectors[id] = v
		tieIDs = append(tieIDs, uint64(id))
	}
	slices.Sort(tieIDs)
	p := Params{Tau: 4, Omega: 8, M: 6, Alpha: 512, Gamma: 128, Seed: 43, MemtableMaxVectors: 1 << 20}
	ix, err := Build(filepath.Join(t.TempDir(), "ix"), ds.Vectors, p)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	// The exhaustive centre query refines all n slots in τ+1 runs of
	// n/(τ+1); by distance alone the merge would keep the first k ties in
	// (run, id) order.
	runs := min(n/minRefineRun, p.Tau+1)
	byRun := slices.Clone(tieIDs)
	runOf := func(id uint64) uint64 {
		slot, err := ix.slots.slot(id)
		if err != nil {
			t.Fatal(err)
		}
		return slot * uint64(runs) / n
	}
	slices.SortStableFunc(byRun, func(a, b uint64) int { return int(runOf(a)) - int(runOf(b)) })
	if slices.Equal(byRun[:k], tieIDs[:k]) {
		t.Fatal("the tie's first run holds its smallest ids: the tie test tests nothing")
	}

	shapes := map[string]SearchOptions{
		"alpha-gt-gamma": {},
		"alpha-eq-gamma": {Alpha: 256, Gamma: 256},
		"ptolemaic":      {Beta: 200, Gamma: 64, Ptolemaic: PtolemaicOn},
		"maxcandidates":  {MaxCandidates: 150},
		"exhaustive":     {Alpha: n, Gamma: n},
	}
	queries := append(ds.PerturbedQueries(8, 0.02, 42), centre)
	deleted := map[uint64]bool{}
	compare := func(stage string) {
		t.Helper()
		type answer struct {
			res []Result
			st  *QueryStats
		}
		want := map[string]answer{}
		eachHelperCount(p.Tau, func(procs int) {
			for name, o := range shapes {
				for qi, q := range queries {
					res, st, err := ix.Query(context.Background(), q, k, o)
					if err != nil {
						t.Fatal(err)
					}
					key := fmt.Sprintf("%s, %s, query %d", stage, name, qi)
					label := fmt.Sprintf("%s, GOMAXPROCS %d", key, procs)
					if w, ok := want[key]; ok {
						requireIdentical(t, label, res, w.res)
						requireSameWork(t, label, st, w.st)
					}
					want[key] = answer{res, st}
				}
			}
			res := want[fmt.Sprintf("%s, exhaustive, query %d", stage, len(queries)-1)].res
			var live []uint64
			for _, id := range tieIDs {
				if !deleted[id] {
					live = append(live, id)
				}
			}
			for i, r := range res {
				if r.ID != live[i] || r.Dist != 0.125 {
					t.Fatalf("%s, GOMAXPROCS %d: tie rank %d is %+v, want id %d at 0.125 (got %+v)", stage, procs, i, r, live[i], res)
				}
			}
		})
	}

	compare("fresh build")
	for _, id := range []uint64{tieIDs[1], 55, 1999} {
		deleted[id] = true
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range ds.PerturbedQueries(300, 0.05, 44) {
		if _, err := ix.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	compare("deletes and a memtable")
}

// cancelAfter is a context whose Err turns context.Canceled from its
// n-th call on: a cancellation that lands inside the tree walks however
// the helpers are scheduled.
type cancelAfter struct {
	context.Context
	n     int32
	calls atomic.Int32
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// corruptLeaves writes a page count past every leaf's capacity into the
// tree file at path, so any walk over it is an ErrCorrupt.
func corruptLeaves(t *testing.T, path string) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const pageSize = 4096
	for off := pageSize; off+pageSize <= len(buf); off += pageSize {
		if buf[off] == 2 { // a leaf: [1B type][8B left][8B right][2B count]
			buf[off+17], buf[off+18] = 0xFF, 0xFF
		}
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// Helpers never outlive Query. On success, on a context cancelled in
// the middle of the tree walks, on an EIO from one tree file and on a
// corrupt tree page, the query-work count is back where it started and
// no goroutine is left when Query returns, and the error is the one the
// failing tree returned. Run at GOMAXPROCS(τ+1), where every tree walk
// and refinement run has a helper; `make chaos` runs it with -race
// -count=10.
func TestFaultQueryHelpersExit(t *testing.T) {
	ds := data.Generate(data.Config{Name: "lifetime", N: 2000, Dim: 32, Clusters: 6, Lo: 0, Hi: 1, Seed: 61})
	p := Params{Tau: 4, Omega: 8, M: 4, Alpha: 1024, Gamma: 2 * minRefineRun, Seed: 62}
	dir := filepath.Join(t.TempDir(), "ix")
	ix, err := Build(dir, ds.Vectors, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p.Tau + 1))
	q := ds.Vectors[17]

	cases := []struct {
		name string
		open func(t *testing.T) (*Index, context.Context)
		want error // nil: the query must succeed
	}{
		{"success", func(t *testing.T) (*Index, context.Context) {
			return openOrFatal(t, dir, OpenOptions{}), context.Background()
		}, nil},
		{"cancelled mid-walk", func(t *testing.T) (*Index, context.Context) {
			return openOrFatal(t, dir, OpenOptions{}), &cancelAfter{Context: context.Background(), n: 6}
		}, context.Canceled},
		{"EIO on one tree file", func(t *testing.T) (*Index, context.Context) {
			// Open's own reads of the file get through; with the cache off
			// a query reads it again until the rule fires.
			restore := iofault.SetGlobal(iofault.NewInjector(iofault.Rule{PathGlob: "tree_02.pg", Op: iofault.OpRead, AfterCalls: 40}))
			defer restore()
			return openOrFatal(t, dir, OpenOptions{DisableCache: true}), context.Background()
		}, pager.ErrIO},
		{"corrupt tree page", func(t *testing.T) (*Index, context.Context) {
			cp := crashCopy(t, dir)
			corruptLeaves(t, filepath.Join(cp, "tree_01.pg"))
			return openOrFatal(t, cp, OpenOptions{}), context.Background()
		}, bptree.ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ix, ctx := tc.open(t)
			defer ix.Close()
			var res []Result
			var st *QueryStats
			var err error
			for i := 0; i < 100 && err == nil; i++ {
				idle := fanout.Idle()
				check := leakcheck.Check(t)
				res, st, err = ix.Query(ctx, q, 10, SearchOptions{})
				check()
				if got := fanout.Idle(); got != idle {
					t.Fatalf("idle CPUs %d after query %d, %d before: the query-work count leaked", got, i, idle)
				}
				if tc.want == nil {
					break
				}
			}
			if tc.want == nil {
				if err != nil || len(res) != 10 || st.Candidates < minRefineRun*2 {
					t.Fatalf("query: %d results, stats %+v, err %v; want 10 results from two refinement runs or more", len(res), st, err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("query err = %v, want %v", err, tc.want)
			}
		})
	}
}

func openOrFatal(t *testing.T, dir string, o OpenOptions) *Index {
	t.Helper()
	ix, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// A k far above the index's size is answered with what the index holds,
// at the cost of what it holds: the top-k lists set nothing aside for
// k. A k beyond the knob limit is an ErrBadOptions, like α or γ beyond
// it.
func TestQueryHugeK(t *testing.T) {
	p := Params{Tau: 2, Omega: 8, M: 3, Alpha: 300, Beta: 300, Gamma: 300, Seed: 71}
	ix, _, queries := buildSmall(t, 300, p)
	if _, _, err := ix.Query(context.Background(), queries[0], maxKnob+1, SearchOptions{}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("k = maxKnob+1: err %v, want ErrBadOptions", err)
	}
	// Warm the scratch pools so the measurement sees the query alone.
	if _, _, err := ix.Query(context.Background(), queries[0], 10, SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, _, err := ix.Query(context.Background(), queries[0], 1<<20, SearchOptions{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 300 {
		t.Fatalf("k = 2^20 over 300 vectors returned %d results", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist || math.IsNaN(res[i].Dist) {
			t.Fatal("results not sorted")
		}
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("k = 2^20 allocated %d bytes, want < 1 MiB", grew)
	}
}
