package core

import (
	"bytes"
	"context"
	"math"
	"slices"
	"sort"
	"testing"

	"github.com/hd-index/hdindex/internal/data"
	"github.com/hd-index/hdindex/internal/hilbert"
	"github.com/hd-index/hdindex/internal/rdbtree"
	"github.com/hd-index/hdindex/internal/topk"
)

// referenceTrees holds every tree's leaf entries in key order, read once
// through ScanAll, for referenceTree to walk in memory.
type referenceTrees [][]referenceEntry

type referenceEntry struct {
	key      []byte
	id       uint64
	refDists []float32
}

func loadReferenceTrees(t *testing.T, ix *Index) referenceTrees {
	t.Helper()
	trees := make(referenceTrees, len(ix.trees))
	for tr, tree := range ix.trees {
		err := tree.ScanAll(func(key []byte, e rdbtree.Entry) bool {
			trees[tr] = append(trees[tr], referenceEntry{slices.Clone(key), e.ID, slices.Clone(e.RefDists)})
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return trees
}

// referenceTree is the per-tree stage searchTree replaced, kept as its
// reference and sharing none of its machinery: the α entries nearest the
// query's Hilbert key by a per-entry two-sided walk (byte-at-a-time
// KeyDelta comparison, ties right) over the tree's entries in memory, a
// second pass for the triangular bounds with the branching Eq. (5) over
// the codes the decoded distances round back to, widened by the tree's
// ε, and a full sort by (bound, walk position) at each filter.
func (trees referenceTrees) referenceTree(ix *Index, tr int, q []float32, qdist []float64, plan searchPlan) []uint64 {
	coords := make([]uint32, ix.eta)
	ix.quants[tr].Coords(coords, q[tr*ix.eta:(tr+1)*ix.eta])
	key := ix.curves[tr].Encode(nil, coords)[:ix.treeConfig().StoredKeyLen()]

	all := trees[tr]
	r := sort.Search(len(all), func(i int) bool { return bytes.Compare(all[i].key, key) >= 0 })
	l := r - 1
	var walked []referenceEntry
	dl, dr := make([]byte, len(key)), make([]byte, len(key))
	for len(walked) < plan.alpha && (l >= 0 || r < len(all)) {
		if l < 0 || (r < len(all) &&
			bytes.Compare(hilbert.KeyDelta(dl, key, all[l].key), hilbert.KeyDelta(dr, key, all[r].key)) >= 0) {
			walked = append(walked, all[r])
			r++
		} else {
			walked = append(walked, all[l])
			l--
		}
	}

	keepSorted := func(items []topk.Item, k int) []topk.Item {
		sort.Slice(items, func(i, j int) bool {
			if items[i].Dist != items[j].Dist {
				return items[i].Dist < items[j].Dist
			}
			return items[i].ID < items[j].ID
		})
		return items[:min(k, len(items))]
	}
	sc := ix.trees[tr].Scale()
	codes := func(e referenceEntry) []uint16 {
		u := make([]uint16, len(e.refDists))
		for i, d := range e.refDists {
			u[i] = uint16(math.Round(float64(d) / sc.S)) // float32 rounding is far under half a code
		}
		return u
	}
	var items []topk.Item
	for pos, e := range walked {
		var lb float64
		for i, u := range codes(e) {
			d := qdist[i]/sc.S - float64(u)
			if d < 0 {
				d = -d
			}
			if d > lb {
				lb = d
			}
		}
		if lb = lb*sc.S - sc.Eps; lb < 0 {
			lb = 0
		}
		items = append(items, topk.Item{ID: uint64(pos), Dist: lb})
	}
	if plan.ptolemaic {
		items = keepSorted(items, plan.beta)
		for i, it := range items {
			items[i].Dist = ix.ptolemaicLB(qdist, codes(walked[it.ID]), sc)
		}
	}
	var ids []uint64
	for _, it := range keepSorted(items, plan.gamma) {
		ids = append(ids, walked[it.ID].id)
	}
	return ids
}

// The fused block-walk / select-k cascade must answer exactly as the
// per-entry, full-sort pipeline did — ids, distances and order — in the
// four shapes that exercise it differently: selection with α > γ, no
// selection at α = γ, two selections with Ptolemaic on, and the κ cap,
// the one path where the survivors' rank order reaches the answer. The
// duplicates dataset holds every vector 20 times over, so runs of equal
// bounds straddle the γ and β boundaries, and only ties broken by walk
// position, as the reference breaks them, keep the same survivors.
func TestCascadeMatchesReferencePipeline(t *testing.T) {
	ds := data.Generate(data.Config{Name: "cascade", N: 5000, Dim: 32, Clusters: 8, Lo: 0, Hi: 1, Seed: 77})
	p := Params{Tau: 4, Omega: 8, M: 6, Alpha: 512, Gamma: 128, Seed: 3}
	shapes := map[string]SearchOptions{
		"alpha-gt-gamma": {},
		"alpha-eq-gamma": {Alpha: 256, Gamma: 256},
		"ptolemaic":      {Beta: 200, Gamma: 64, Ptolemaic: PtolemaicOn},
		"maxcandidates":  {MaxCandidates: 150},
	}
	cascadeMatchesReference(t, ds.Vectors, ds.PerturbedQueries(20, 0.02, 78), p, shapes)

	t.Run("duplicates", func(t *testing.T) {
		base := data.Generate(data.Config{Name: "duplicates", N: 250, Dim: 32, Clusters: 8, Lo: 0, Hi: 1, Seed: 79})
		var vectors [][]float32
		for range 20 {
			vectors = append(vectors, base.Vectors...)
		}
		// At α = γ nothing is selected, so no boundary is straddled; the
		// copies shrink the union, so the cap comes down to bind.
		delete(shapes, "alpha-eq-gamma")
		shapes["maxcandidates"] = SearchOptions{MaxCandidates: 100}
		cascadeMatchesReference(t, vectors, base.PerturbedQueries(20, 0.02, 80), p, shapes)
	})
}

// cascadeMatchesReference builds an index over vectors and checks every
// query against the reference pipeline in each shape, one subtest each.
func cascadeMatchesReference(t *testing.T, vectors, queries [][]float32, p Params, shapes map[string]SearchOptions) {
	ix, err := Build(t.TempDir()+"/ix", vectors, p)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	trees := loadReferenceTrees(t, ix)
	for name, o := range shapes {
		t.Run(name, func(t *testing.T) {
			eachHelperCount(p.Tau, func(int) {
				for qi, q := range queries {
					want, wantCand := naiveSearchWith(t, ix, q, 10, o, func(tr int, qdist []float64, plan searchPlan) []uint64 {
						// Each tree's survivors, not only the answer: a tie
						// broken otherwise swaps one copy for another, which
						// the answer and κ rarely show. They are a set unless
						// the cap needs their rank order.
						ref := trees.referenceTree(ix, tr, q, qdist, plan)
						got, _, err := ix.searchTree(context.Background(), tr, q, qdist, nil, plan)
						if err != nil {
							t.Fatal(err)
						}
						if plan.maxCandidates == 0 {
							got, ref = slices.Sorted(slices.Values(got)), slices.Sorted(slices.Values(ref))
						}
						if !slices.Equal(got, ref) {
							t.Fatalf("query %d tree %d: survivors %v, reference %v", qi, tr, got, ref)
						}
						return ref
					})
					got, st, err := ix.Query(context.Background(), q, 10, o)
					if err != nil {
						t.Fatal(err)
					}
					if o.MaxCandidates > 0 && st.Candidates != o.MaxCandidates {
						t.Fatalf("the cap did not bind (κ = %d)", st.Candidates)
					}
					assertSameResults(t, qi, got, st, want, wantCand)
				}
			})
		})
	}
}
