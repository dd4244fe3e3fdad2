package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/hd-index/hdindex/internal/data"
)

// tieGroup returns 2·dims vectors at exactly the same distance from the
// centre (0.5 everywhere): centre ± 1/8 along each of the first dims
// axes, all exactly representable. They differ only inside partition 0,
// so tree 0 — whose key order is the store order — scatters them while
// every other tree finds them all at the query key itself.
func tieGroup(dim, dims int) (centre []float32, group [][]float32) {
	centre = make([]float32, dim)
	for d := range centre {
		centre[d] = 0.5
	}
	for d := 0; d < dims; d++ {
		for _, delta := range []float32{0.125, -0.125} {
			v := slices.Clone(centre)
			v[d] += delta
			group = append(group, v)
		}
	}
	return centre, group
}

// The store layout moves bytes, not answers: the same vectors built in
// tree-0 key order (what every Build does) and in id order with no ids.pg
// (the layout before the slot space, reached by telling the unexported
// builder not to cluster) must return the same result lists and do the
// same work — candidates, exact distances, tree entries, memtable scans —
// in the four cascade shapes, through deletes, tail inserts, a compaction
// and a reopen. Sixteen hand-placed vectors tie exactly at the k-th
// boundary of one query, spread over the clustered base, the compacted
// tail and the memtable, with slot order disagreeing with id order: the
// tie must go to the smaller id in both layouts.
func TestClusteredLayoutAnswersAsIdentityLayout(t *testing.T) {
	ds := data.Generate(data.Config{Name: "layout", N: 3000, Dim: 32, Clusters: 8, Lo: 0, Hi: 1, Seed: 101})
	centre, group := tieGroup(32, 8)
	vectors := ds.Vectors
	tieIDs := []uint64{}
	for j, v := range group {
		// 10 in the base, 3 in the batch that gets compacted, 3 in the
		// batch left in the memtable; descending positions so a later
		// group member tends to get the smaller id.
		id := []int{2390, 2211, 1800, 1603, 1207, 911, 640, 402, 130, 7, 2650, 2520, 2401, 2990, 2840, 2705}[j]
		vectors[id] = v
		tieIDs = append(tieIDs, uint64(id))
	}
	slices.Sort(tieIDs)
	const base, compacted = 2400, 2700
	queries := append(ds.PerturbedQueries(12, 0.02, 102), centre)

	p := Params{Tau: 4, Omega: 8, M: 6, Alpha: 512, Gamma: 128, Seed: 3, MemtableMaxVectors: 1 << 20}
	open := OpenOptions{MemtableMaxVectors: 1 << 20}
	dirs := map[bool]string{true: filepath.Join(t.TempDir(), "clustered"), false: filepath.Join(t.TempDir(), "identity")}
	ixs := map[bool]*Index{}
	for clustered, dir := range dirs {
		ix, err := build(context.Background(), dir, vectors[:base], p, clustered)
		if err != nil {
			t.Fatal(err)
		}
		ixs[clustered] = ix
	}
	defer func() {
		for _, ix := range ixs {
			ix.Close()
		}
	}()

	// The two directories differ the way the layouts say they do.
	if _, err := os.Stat(filepath.Join(dirs[false], slotFile)); !os.IsNotExist(err) {
		t.Fatalf("the identity layout wrote %s (stat: %v)", slotFile, err)
	}
	if ixs[false].slots.base != 0 || ixs[true].slots.base != base {
		t.Fatalf("clustered bases: identity %d, clustered %d; want 0 and %d", ixs[false].slots.base, ixs[true].slots.base, base)
	}
	moved, inverted := 0, false
	for id := uint64(0); id < base; id++ {
		slot, err := ixs[true].slots.slot(id)
		if err != nil {
			t.Fatal(err)
		}
		if back, err := ixs[true].slots.id(slot); err != nil || back != id {
			t.Fatalf("id %d → slot %d → id %d (%v)", id, slot, back, err)
		}
		if slot != id {
			moved++
		}
	}
	if moved < base/2 {
		t.Fatalf("only %d of %d vectors moved: the build did not cluster", moved, base)
	}
	for i, a := range tieIDs {
		for _, b := range tieIDs[i+1:] {
			if b >= base {
				continue
			}
			sa, _ := ixs[true].slots.slot(a)
			sb, _ := ixs[true].slots.slot(b)
			inverted = inverted || sa > sb
		}
	}
	if !inverted {
		t.Fatal("no tied pair has slot order opposite to id order: the tie test tests nothing")
	}

	shapes := map[string]SearchOptions{
		"alpha-gt-gamma": {},
		"alpha-eq-gamma": {Alpha: 256, Gamma: 256},
		"ptolemaic":      {Beta: 200, Gamma: 64, Ptolemaic: PtolemaicOn},
		"maxcandidates":  {MaxCandidates: 150},
	}
	deleted := map[uint64]bool{}
	compare := func(stage string) {
		t.Helper()
		for name, o := range shapes {
			for _, parallel := range []bool{false, true} {
				for qi, q := range queries {
					var res [2][]Result
					var sts [2]*QueryStats
					for i, clustered := range []bool{false, true} {
						ix := ixs[clustered]
						ix.params.Parallel = parallel
						var err error
						if res[i], sts[i], err = ix.Query(context.Background(), q, 10, o); err != nil {
							t.Fatal(err)
						}
					}
					label := fmt.Sprintf("%s, %s, parallel=%v, query %d", stage, name, parallel, qi)
					requireIdentical(t, label, res[1], res[0])
					a, b := sts[0], sts[1]
					if a.Candidates != b.Candidates || a.ExactDistances != b.ExactDistances ||
						a.TreeEntries != b.TreeEntries || a.MemtableScanned != b.MemtableScanned {
						t.Fatalf("%s: work differs: identity %d candidates / %d distances / %d entries / %d memtable, clustered %d / %d / %d / %d",
							label, a.Candidates, a.ExactDistances, a.TreeEntries, a.MemtableScanned,
							b.Candidates, b.ExactDistances, b.TreeEntries, b.MemtableScanned)
					}
				}
			}
		}
		// The tie: at k = 5 the centre's answer is the five smallest live
		// ids of the group visible so far, all at the one distance.
		var want []uint64
		for _, id := range tieIDs {
			if id < ixs[true].Count() && !deleted[id] && len(want) < 5 {
				want = append(want, id)
			}
		}
		for clustered, ix := range ixs {
			res, _, err := ix.Query(context.Background(), centre, 5, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range res {
				if r.ID != want[i] || r.Dist != 0.125 {
					t.Fatalf("%s, clustered=%v: tie rank %d is %+v, want id %d at 0.125 (got %+v)", stage, clustered, i, r, want[i], res)
				}
			}
		}
	}
	both := func(op func(ix *Index) error) {
		t.Helper()
		for _, ix := range ixs {
			if err := op(ix); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert := func(vs [][]float32) {
		t.Helper()
		both(func(ix *Index) error {
			for _, v := range vs {
				if _, err := ix.Insert(v); err != nil {
					return err
				}
			}
			return nil
		})
	}
	remove := func(ids ...uint64) {
		t.Helper()
		for _, id := range ids {
			deleted[id] = true
			both(func(ix *Index) error { return ix.Delete(id) })
		}
	}

	compare("fresh build")
	remove(tieIDs[0], 55, 1999)
	insert(vectors[base:compacted])
	remove(2401, 2600) // a tied vector and a bystander, both still in the memtable
	compare("deletes and a memtable")
	both(func(ix *Index) error { return ix.Compact(context.Background()) })
	compare("compacted")
	insert(vectors[compacted:])
	remove(2650, 130, 2705) // tied vectors in the compacted tail, the base and the memtable
	compare("a tail, a memtable and deletes everywhere")
	for clustered, ix := range ixs {
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dirs[clustered], open)
		if err != nil {
			t.Fatal(err)
		}
		ixs[clustered] = re
	}
	compare("reopened")
	both(func(ix *Index) error { return ix.Compact(context.Background()) })
	compare("compacted again")
}
