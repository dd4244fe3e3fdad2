package core

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"

	"github.com/hd-index/hdindex/internal/bptree"
	"github.com/hd-index/hdindex/internal/data"
	"github.com/hd-index/hdindex/internal/pager"
	"github.com/hd-index/hdindex/internal/rdbtree"
	"github.com/hd-index/hdindex/internal/vecmath"
)

// firstWrite is a fresh tree's error bound in units of its scale: half a
// code plus float32's rounding of the distance it codes.
const firstWrite = 0.5 + 1.0/256

// Every bound the walk takes from 16-bit codes stays a lower bound.
// Over random data and queries, through a build and four compactions —
// the third of which takes in a vector farther from every reference
// than any before it, so every tree is coded again at a coarser scale —
// the triangular and Ptolemaic bounds of every walked entry are at most
// its true float64 distance to the query, and each tree's ε bounds the
// largest |u·s − true| over its entries. Where nothing was coded twice
// (after the build, and after compactions that keep the scale, which
// keep every code) ε is that largest error to within 1/128 of a code;
// after the rescale it is the old ε plus one more rounding.
func TestCodedBoundsStayLowerBounds(t *testing.T) {
	ds := data.Generate(data.Config{Name: "codes", N: 1500, Dim: 24, Clusters: 6, Lo: 0, Hi: 1, Seed: 41})
	p := Params{Tau: 3, Omega: 8, M: 5, Alpha: 256, Gamma: 64, Seed: 42, MemtableMaxVectors: 1 << 20}
	ix, err := Build(t.TempDir()+"/ix", ds.Vectors, p)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	rng := rand.New(rand.NewSource(43))
	queries := append(ds.PerturbedQueries(6, 0.05, 44), ds.Vectors[7], ds.Vectors[900])
	far := make([]float32, len(ds.Vectors[0]))
	for i := range far {
		far[i] = 10
	}
	queries = append(queries, far)

	// check returns each tree's scale and, by slot, its decoded distances.
	type tree struct {
		scale rdbtree.Scale
		dists map[uint64][]float32
	}
	vec := make([]float32, ix.nu)
	check := func(stage string) []tree {
		t.Helper()
		trees := make([]tree, len(ix.trees))
		for tr, tree := range ix.trees {
			sc := tree.Scale()
			trees[tr].scale, trees[tr].dists = sc, make(map[uint64][]float32)
			var worst float64
			err := tree.ScanAll(func(_ []byte, e rdbtree.Entry) bool {
				trees[tr].dists[e.ID] = slices.Clone(e.RefDists)
				if _, err := ix.vectors.Get(e.ID, vec); err != nil {
					t.Fatal(err)
				}
				for r, rv := range ix.refs {
					dec := sc.Decode(uint16(math.Round(float64(e.RefDists[r]) / sc.S)))
					worst = max(worst, math.Abs(dec-vecmath.Dist(vec, rv)))
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if worst > sc.Eps {
				t.Fatalf("%s, tree %d: a decoded distance is %v off, ε is %v", stage, tr, worst, sc.Eps)
			}
			if sc.Eps == firstWrite*sc.S && sc.Eps-worst > sc.S/128 {
				t.Errorf("%s, tree %d: ε %v is loose, the largest error is %v (s %v)", stage, tr, sc.Eps, worst, sc.S)
			}

			qdist, qs := make([]float64, len(ix.refs)), make([]float64, len(ix.refs))
			for _, q := range queries {
				for r, rv := range ix.refs {
					qdist[r] = vecmath.Dist(q, rv)
					qs[r] = qdist[r] / sc.S
				}
				coords := make([]uint32, ix.eta)
				ix.quants[tr].Coords(coords, q[tr*ix.eta:(tr+1)*ix.eta])
				key := ix.curve.Encode(nil, coords)
				w := 2 + len(ix.refs)
				var bad error
				err := tree.WalkNearest(context.Background(), key, int(tree.Count()), func(run []uint16, _ bool) {
					for e := 0; e < len(run)/w && bad == nil; e++ {
						entry := run[e*w : (e+1)*w]
						if _, err := ix.vectors.Get(rdbtree.Slot(entry), vec); err != nil {
							bad = err
							return
						}
						truth := vecmath.Dist(q, vec) + 1e-9 // float64 noise in the distances
						if lb := math.Float64frombits(triangularLB(qs, entry[2:], sc)); lb > truth {
							bad = fmt.Errorf("slot %d: triangular bound %v above the distance %v", rdbtree.Slot(entry), lb, truth)
						}
						if lb := ix.ptolemaicLB(qdist, entry[2:], sc); lb > truth {
							bad = fmt.Errorf("slot %d: Ptolemaic bound %v above the distance %v", rdbtree.Slot(entry), lb, truth)
						}
					}
				})
				if err == nil {
					err = bad
				}
				if err != nil {
					t.Fatalf("%s, tree %d: %v", stage, tr, err)
				}
			}
		}
		return trees
	}
	// sameCodes fails unless every tree of after kept before's scale and
	// the codes of every entry both hold.
	sameCodes := func(stage string, before, after []tree) {
		t.Helper()
		for tr := range before {
			if after[tr].scale != before[tr].scale {
				t.Fatalf("%s, tree %d: the scale moved from %+v to %+v", stage, tr, before[tr].scale, after[tr].scale)
			}
			for slot, d := range after[tr].dists {
				if old, ok := before[tr].dists[slot]; ok && !slices.Equal(d, old) {
					t.Fatalf("%s, tree %d: slot %d was coded again, %v then %v", stage, tr, slot, old, d)
				}
			}
		}
	}

	// insert adds n vectors of the data's distribution and deletes a few
	// of the existing ones, then compacts.
	insert := func(n int, extra ...[]float32) {
		t.Helper()
		for range n {
			v := slices.Clone(ds.Vectors[rng.Intn(len(ds.Vectors))])
			for d := range v {
				v[d] += float32(rng.NormFloat64() * 0.02)
			}
			extra = append(extra, v)
		}
		for _, v := range extra {
			if _, err := ix.Insert(v); err != nil {
				t.Fatal(err)
			}
		}
		for range 3 {
			if err := ix.Delete(uint64(rng.Intn(len(ds.Vectors)))); err != nil {
				t.Fatal(err)
			}
		}
		if err := ix.Compact(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	built := check("after the build")
	for tr, b := range built {
		if sc := b.scale; sc.Eps != firstWrite*sc.S {
			t.Fatalf("tree %d was built with ε %v at scale %v", tr, sc.Eps, sc.S)
		}
	}
	insert(40)
	insert(40)
	kept := check("after two compactions")
	sameCodes("after two compactions", built, kept)
	insert(10, far)
	wide := check("after the far insert")
	for tr, w := range wide {
		if old, sc := kept[tr].scale, w.scale; !(sc.S > old.S) || sc.Eps != old.Eps+firstWrite*sc.S {
			t.Fatalf("tree %d: the far insert took scale %+v to %+v", tr, old, sc)
		}
	}
	insert(40)
	sameCodes("after a compaction at the wide scale", wide, check("after a compaction at the wide scale"))
}

// A tree of the float32 layout — the one before 16-bit codes: a 4-byte
// slot and m float32 distances per value, and metadata of η, ω and m
// only — is written here with bptree directly over a built index's
// entries and their exact distances. Open rebuilds such trees once, into
// generation 1, from vectors.pg through Build's tree writer: each
// tree_XX.g1.pg is byte for byte the tree_XX.pg the Build wrote, over
// byte-valued data (byte records) and over float-valued data, each with
// duplicate vectors whose equal keys the writer orders by id, so the
// answers are the same; a second Open rebuilds nothing.
func TestOpenRebuildsFloat32Trees(t *testing.T) {
	for _, cfg := range []data.Config{
		{Name: "bytes", N: 700, Dim: 16, Clusters: 4, Lo: 0, Hi: 255, Integer: true, Seed: 45},
		{Name: "floats", N: 700, Dim: 16, Clusters: 4, Lo: 0, Hi: 1, Seed: 45},
	} {
		t.Run(cfg.Name, func(t *testing.T) { requireRebuildsOldTrees(t, cfg, float32Layout) })
	}
}

// A tree of the full-key layout — the one before key prefixes: each
// leaf and separator key the whole ceil(η·ω/8)-byte Hilbert key, beside
// today's values and today's metadata with the tree's scale — is written
// here with bptree directly, at η·ω = 128 (16-byte keys), over a built
// index's entries in (full key, id) order. Open rebuilds such trees once,
// into generation 1, through Build's tree writer, byte for byte the trees
// the Build wrote, over byte-valued and float-valued data whose
// duplicate vectors tie on the whole key, so the answers are the same; a
// second Open rebuilds nothing.
func TestOpenRebuildsFullKeyTrees(t *testing.T) {
	for _, cfg := range []data.Config{
		{Name: "bytes", N: 700, Dim: 32, Clusters: 4, Lo: 0, Hi: 255, Integer: true, Seed: 55},
		{Name: "floats", N: 700, Dim: 32, Clusters: 4, Lo: 0, Hi: 1, Seed: 55},
	} {
		t.Run(cfg.Name, func(t *testing.T) { requireRebuildsOldTrees(t, cfg, fullKeyLayout) })
	}
}

// An older tree layout Open rebuilds.
type oldLayout int

const (
	float32Layout oldLayout = iota // m exact float32 distances per value; metadata η, ω, m
	fullKeyLayout                  // whole Hilbert keys; today's values and metadata
)

// requireRebuildsOldTrees builds an index over cfg's data and 50
// duplicates of its vectors with τ = 2, rewrites each generation-0 tree
// with bptree directly in layout, its entries in (key, id) order, and
// requires Open to rebuild them into generation 1 byte-identical to the
// Build's trees, answering as the Build did, twice.
func requireRebuildsOldTrees(t *testing.T, cfg data.Config, layout oldLayout) {
	ds := data.Generate(cfg)
	for i := range 50 {
		ds.Vectors = append(ds.Vectors, ds.Vectors[7*i])
	}
	p := Params{Tau: 2, Omega: 8, M: 4, Alpha: 128, Gamma: 32, Seed: 46}
	dir := t.TempDir()
	ix, err := Build(dir, ds.Vectors, p)
	if err != nil {
		t.Fatal(err)
	}
	if byteRecords := ix.vectors.Base() > 0; byteRecords != cfg.Integer {
		t.Fatalf("byte records %v over integer data %v", byteRecords, cfg.Integer)
	}
	queries := ds.PerturbedQueries(10, 0.02, 47)
	type entry struct {
		key, value []byte
		id         uint64
	}
	type oldTree struct {
		cfg     bptree.Config
		extra   []byte
		entries []entry
	}
	olds := make([]oldTree, p.Tau)
	vec := make([]float32, ix.nu)
	coords := make([]uint32, ix.eta)
	for tr := range olds {
		o := &olds[tr]
		tc, sc := ix.treeConfig(), ix.trees[tr].Scale()
		o.cfg = bptree.Config{KeyLen: tc.StoredKeyLen(), ValLen: 4 + 4*p.M}
		o.extra = make([]byte, 12)
		if layout == fullKeyLayout {
			o.cfg = bptree.Config{KeyLen: tc.KeyLen(), ValLen: tc.ValLen()}
			o.extra = make([]byte, 28)
			binary.BigEndian.PutUint64(o.extra[12:], math.Float64bits(sc.S))
			binary.BigEndian.PutUint64(o.extra[20:], math.Float64bits(sc.Eps))
		}
		for i, v := range []int{ix.eta, p.Omega, p.M} {
			binary.BigEndian.PutUint32(o.extra[4*i:], uint32(v))
		}
		err := ix.trees[tr].ScanAll(func(k []byte, e rdbtree.Entry) bool {
			if _, err := ix.vectors.Get(e.ID, vec); err != nil {
				t.Fatal(err)
			}
			id, err := ix.slots.id(e.ID)
			if err != nil {
				t.Fatal(err)
			}
			ix.quants[tr].Coords(coords, vec[tr*ix.eta:(tr+1)*ix.eta])
			if key := ix.curve.Encode(nil, coords); !bytes.Equal(key, k) {
				t.Fatalf("tree %d stores key %x for slot %d, whose key is %x", tr, k, e.ID, key)
			}
			v := binary.LittleEndian.AppendUint32(nil, uint32(e.ID))
			switch layout {
			case float32Layout:
				for _, rv := range ix.refs {
					v = binary.LittleEndian.AppendUint32(v, math.Float32bits(float32(vecmath.Dist(vec, rv))))
				}
			case fullKeyLayout:
				k = fullCurve(t, ix).Encode(nil, coords)
				for _, d := range e.RefDists { // the code each decoded distance came from
					v = binary.LittleEndian.AppendUint16(v, uint16(math.Round(float64(d)/sc.S)))
				}
			}
			o.entries = append(o.entries, entry{slices.Clone(k), v, id})
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		slices.SortFunc(o.entries, func(a, b entry) int {
			if c := bytes.Compare(a.key, b.key); c != 0 {
				return c
			}
			return cmp.Compare(a.id, b.id)
		})
	}
	want := make([][]Result, len(queries))
	for i, q := range queries {
		if want[i], _, err = ix.Query(context.Background(), q, 10, SearchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	built := make([][]byte, p.Tau)
	for tr, o := range olds {
		path := ix.treeGenPath(tr, 0)
		if built[tr], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		pgr, err := pager.Open(path, pager.Options{Create: true, PageSize: 4096})
		if err != nil {
			t.Fatal(err)
		}
		bt, err := bptree.Create(pgr, o.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := bt.SetExtra(o.extra); err != nil {
			t.Fatal(err)
		}
		var src bptree.SliceSource
		for _, e := range o.entries {
			src.Keys, src.Values = append(src.Keys, e.key), append(src.Values, e.value)
		}
		if err := bt.BulkLoad(&src); err == nil {
			err = pgr.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	for round := range 2 {
		ix, err := Open(dir, OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if ix.gen != 1 {
			t.Fatalf("open %d: generation %d, want 1", round, ix.gen)
		}
		for i, q := range queries {
			got, _, err := ix.Query(context.Background(), q, 10, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, fmt.Sprintf("open %d, query %d", round, i), got, want[i])
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		for tr, b := range built {
			got, err := os.ReadFile(ix.treeGenPath(tr, 1))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, b) {
				t.Fatalf("open %d: the rebuilt tree %d differs from the one Build wrote (%d bytes, built %d)", round, tr, len(got), len(b))
			}
		}
	}
}
