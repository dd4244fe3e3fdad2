package core

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"github.com/hd-index/hdindex/internal/hilbert"
	"github.com/hd-index/hdindex/internal/rdbtree"
)

// fullCurve is ix's curve at full width, ⌈η·ω/8⌉ bytes: the key an
// older tree layout stored, and the oracle a stored key is the start of.
func fullCurve(t testing.TB, ix *Index) *hilbert.Curve {
	t.Helper()
	kind := hilbert.HilbertCurve
	if ix.params.Curve == CurveZOrder {
		kind = hilbert.ZOrderCurve
	}
	c, err := hilbert.NewPrefix(kind, ix.eta, ix.params.Omega, (ix.eta*ix.params.Omega+7)/8)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// requireOracleKeys holds every tree of ix to an oracle that shares
// none of the engine's key path: each committed, unpurged id's
// full-width key, cut to the tree's stored width, in (key, id) order,
// paired with the id's slot, must be the tree's (key, slot) sequence.
func requireOracleKeys(t *testing.T, stage string, ix *Index) {
	t.Helper()
	type entry struct {
		key      []byte
		id, slot uint64
	}
	wide, w := fullCurve(t, ix), ix.treeConfig().StoredKeyLen()
	vec, coords := make([]float32, ix.nu), make([]uint32, ix.eta)
	for tr, tree := range ix.trees {
		var want []entry
		for id := range ix.vectors.Count() {
			slot, err := ix.slots.slot(id)
			if err != nil {
				t.Fatal(err)
			}
			if m, _ := ix.deleted.get(slot); m.purged {
				continue
			}
			if _, err := ix.vectors.Get(slot, vec); err != nil {
				t.Fatal(err)
			}
			ix.quants[tr].Coords(coords, vec[tr*ix.eta:(tr+1)*ix.eta])
			want = append(want, entry{wide.Encode(nil, coords)[:w], id, slot})
		}
		slices.SortFunc(want, func(a, b entry) int {
			return cmp.Or(bytes.Compare(a.key, b.key), cmp.Compare(a.id, b.id))
		})
		var got []entry
		err := tree.ScanAll(func(k []byte, e rdbtree.Entry) bool {
			got = append(got, entry{key: slices.Clone(k), slot: e.ID})
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s, tree %d: %d entries, the oracle has %d", stage, tr, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i].key, want[i].key) || got[i].slot != want[i].slot {
				t.Fatalf("%s, tree %d, entry %d: key %x slot %d, the oracle has key %x slot %d (id %d)",
					stage, tr, i, got[i].key, got[i].slot, want[i].key, want[i].slot, want[i].id)
			}
		}
	}
}

// Every tree's stored keys are the full-width curve's keys cut to the
// stored width, in (key, id) order: after Build, after a compaction that
// merges ties between old and new objects, and after Open rebuilds the
// trees of an older layout. The geometries cover a key shorter than the
// stored width (η·ω ≤ 64), a key with front padding whose prefix ends
// mid-plane (η = 7 does not divide 64), ω = 16 (4 of its planes stored),
// and the Z-order curve.
func TestTreeKeysMatchFullWidthOracle(t *testing.T) {
	cases := []struct {
		nu, tau, omega int
		curve          Curve
	}{
		{8, 2, 8, CurveHilbert},   // η·ω = 32: 4-byte keys, the whole key
		{14, 2, 13, CurveHilbert}, // η·ω = 91: 5 bits of front padding
		{32, 2, 16, CurveHilbert}, // η = 16, ω = 16: the top 4 planes
		{14, 2, 13, CurveZOrder},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/eta%d/omega%d", c.curve, c.nu/c.tau, c.omega), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(c.nu*100 + c.omega)))
			vector := func(pool [][]float32) []float32 {
				if len(pool) > 0 && rng.Intn(8) == 0 { // a duplicate: a tie on every tree
					return slices.Clone(pool[rng.Intn(len(pool))])
				}
				v := make([]float32, c.nu)
				for d := range v {
					v[d] = rng.Float32() * 100
				}
				return v
			}
			var vectors [][]float32
			for range 600 {
				vectors = append(vectors, vector(vectors))
			}
			p := Params{Tau: c.tau, Omega: c.omega, M: 4, Alpha: 64, Curve: c.curve, Seed: 3, MemtableMaxVectors: 1 << 20}
			ix, err := Build(t.TempDir(), vectors, p)
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			requireOracleKeys(t, "after Build", ix)

			for range 150 {
				if _, err := ix.Insert(vector(vectors)); err != nil {
					t.Fatal(err)
				}
			}
			for _, id := range []uint64{0, 17, 301, 599, 600, 700} {
				if err := ix.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			if err := ix.Compact(context.Background()); err != nil {
				t.Fatal(err)
			}
			requireOracleKeys(t, "after a compaction", ix)
		})
	}

	t.Run("older-layout rebuild", func(t *testing.T) {
		dir := t.TempDir()
		copyDir(t, filepath.Join("testdata", "parent-layout", "index"), dir)
		ix, err := Open(dir, OpenOptions{MemtableMaxVectors: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		requireOracleKeys(t, "after the older-layout rebuild", ix)
	})
}
