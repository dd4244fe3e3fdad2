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

// tieGroup returns 2·dims vectors at exactly the same distance delta
// from the centre (c everywhere): centre ± delta along each of the first
// dims axes, all exactly representable. They differ only inside
// partition 0, so tree 0 — whose key order is the store order — scatters
// them while every other tree finds them all at the query key itself.
func tieGroup(dim, dims int, c, delta float32) (centre []float32, group [][]float32) {
	centre = make([]float32, dim)
	for d := range centre {
		centre[d] = c
	}
	for d := 0; d < dims; d++ {
		for _, sign := range []float32{1, -1} {
			v := slices.Clone(centre)
			v[d] += sign * delta
			group = append(group, v)
		}
	}
	return centre, group
}

// The store layout moves bytes, not answers: the same vectors built the
// way every Build does (tree-0 key order, byte records when the data is
// integer-valued in [0,255]) and in id order with float32 records and no
// ids.pg (the layout before the slot space, reached by telling the
// unexported builder so) must return the same result lists and do the
// same work — candidates, exact distances, tree entries, memtable scans —
// in the four cascade shapes, through deletes, tail inserts (two of them
// not integers, so they can only live in the float32 tail), a compaction
// and a reopen. Sixteen hand-placed vectors tie exactly at the k-th
// boundary of one query, spread over the clustered base, the compacted
// tail and the memtable, with slot order disagreeing with id order: the
// tie must go to the smaller id in both layouts. Run on floats in [0,1]
// (float32 records) and on integers in [0,255] (byte records).
func TestClusteredLayoutAnswersAsIdentityLayout(t *testing.T) {
	t.Run("floats", func(t *testing.T) {
		layoutEquivalence(t, data.Config{Name: "layout", N: 3000, Dim: 32, Clusters: 8, Lo: 0, Hi: 1, Seed: 101}, 0.5, 0.125)
	})
	t.Run("bytes", func(t *testing.T) {
		layoutEquivalence(t, data.Config{Name: "layout", N: 3000, Dim: 32, Clusters: 8, Lo: 0, Hi: 255, Integer: true, Seed: 101}, 128, 32)
	})
}

func layoutEquivalence(t *testing.T, cfg data.Config, c, delta float32) {
	ds := data.Generate(cfg)
	centre, group := tieGroup(32, 8, c, delta)
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
	// Not integers: one for the compacted tail, one for the memtable.
	vectors[2450][3] += 0.5
	vectors[2800][5] += 0.25
	queries := append(ds.PerturbedQueries(12, 0.02, 102), centre)

	p := Params{Tau: 4, Omega: 8, M: 6, Alpha: 512, Gamma: 128, Seed: 3, MemtableMaxVectors: 1 << 20}
	open := OpenOptions{MemtableMaxVectors: 1 << 20}
	dirs := map[bool]string{true: filepath.Join(t.TempDir(), "clustered"), false: filepath.Join(t.TempDir(), "identity")}
	ixs := map[bool]*Index{}
	for clustered, dir := range dirs {
		layout := layoutIDOrder
		if clustered {
			layout = layoutTree0
		}
		ix, err := build(context.Background(), dir, vectors[:base], p, layout)
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
	// Byte records exactly when the data is integer-valued, and only in
	// the clustered base.
	wantBytes := uint64(0)
	if cfg.Integer {
		wantBytes = base
	}
	requireBytes := func(stage string) {
		t.Helper()
		if got, id := ixs[true].vectors.Base(), ixs[false].vectors.Base(); got != wantBytes || id != 0 {
			t.Fatalf("%s: byte records: clustered %d, identity %d; want %d and 0", stage, got, id, wantBytes)
		}
	}
	requireBytes("fresh build")

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
			eachHelperCount(p.Tau, func(procs int) {
				for qi, q := range queries {
					var res [2][]Result
					var sts [2]*QueryStats
					for i, clustered := range []bool{false, true} {
						ix := ixs[clustered]
						var err error
						if res[i], sts[i], err = ix.Query(context.Background(), q, 10, o); err != nil {
							t.Fatal(err)
						}
					}
					label := fmt.Sprintf("%s, %s, GOMAXPROCS %d, query %d: clustered vs identity layout", stage, name, procs, qi)
					requireIdentical(t, label, res[1], res[0])
					requireSameWork(t, label, sts[1], sts[0])
				}
			})
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
				if r.ID != want[i] || r.Dist != float64(delta) {
					t.Fatalf("%s, clustered=%v: tie rank %d is %+v, want id %d at %v (got %+v)", stage, clustered, i, r, want[i], delta, res)
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
	requireBytes("reopened")
	compare("reopened")
	both(func(ix *Index) error { return ix.Compact(context.Background()) })
	compare("compacted again")
	requireBytes("compacted again")
	for _, ix := range ixs {
		if _, err := ix.Check(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}
