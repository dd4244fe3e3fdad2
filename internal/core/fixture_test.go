package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/hd-index/hdindex/internal/bptree"
	"github.com/hd-index/hdindex/internal/pager"
	"github.com/hd-index/hdindex/internal/rdbtree"
)

// testdata/parent-layout/index is an index directory written by the
// commit before the slot-space layout (no ids.pg, no layout in
// meta.json): core.Build over 500 16-d vectors, 40 inserts, 5 deletes, a
// compaction (generation-1 trees, purged marks in deleted.bin), then 10
// more inserts and 2 deletes left in wal.log. answers.json, written by
// that same commit, holds what it answered to 20 queries in four cascade
// shapes, and what it answered after the Insert → Delete → Compact →
// reopen sequence recorded under "then".
type fixtureAnswers struct {
	Note    string         `json:"note"`
	Queries [][]float32    `json:"queries"`
	K       int            `json:"k"`
	Shapes  []fixtureShape `json:"shapes"`
	Count   uint64         `json:"count"`
	Deleted int            `json:"deleted"`
	Then    fixtureThen    `json:"then"`
}

type fixtureShape struct {
	Options    SearchOptions `json:"options"`
	Results    [][]Result    `json:"results"`
	Candidates []int         `json:"candidates"`
}

type fixtureThen struct {
	Insert  [][]float32 `json:"insert"`
	Delete  []uint64    `json:"delete"`
	Results [][]Result  `json:"results"`
	Count   uint64      `json:"count"`
	Deleted int         `json:"deleted"`
}

// An index directory of the previous layout opens through the same code
// as a fresh one, answers exactly as the commit that wrote it did, and
// keeps doing so through an insert, a delete, a compaction and a reopen.
func TestOpensParentLayoutDirectory(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("testdata", "parent-layout", "answers.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want fixtureAnswers
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copyDir(t, filepath.Join("testdata", "parent-layout", "index"), dir)
	opts := OpenOptions{MemtableMaxVectors: 1 << 20}
	ix, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { ix.Close() }()

	if ix.Count() != want.Count || ix.DeletedCount() != want.Deleted {
		t.Fatalf("opened %d vectors, %d deleted; the fixture recorded %d and %d", ix.Count(), ix.DeletedCount(), want.Count, want.Deleted)
	}
	for _, shape := range want.Shapes {
		for qi, q := range want.Queries {
			got, st, err := ix.Query(context.Background(), q, want.K, shape.Options)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, fmt.Sprintf("%+v query %d", shape.Options, qi), got, shape.Results[qi])
			if st.Candidates != shape.Candidates[qi] {
				t.Fatalf("%+v query %d: %d candidates, recorded %d", shape.Options, qi, st.Candidates, shape.Candidates[qi])
			}
		}
	}

	for _, v := range want.Then.Insert {
		if _, err := ix.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range want.Then.Delete {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if ix, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	if ix.Count() != want.Then.Count || ix.DeletedCount() != want.Then.Deleted {
		t.Fatalf("after the mutations: %d vectors, %d deleted; recorded %d and %d", ix.Count(), ix.DeletedCount(), want.Then.Count, want.Then.Deleted)
	}
	exhaustive := SearchOptions{Alpha: 600, Gamma: 600}
	for qi, q := range want.Queries {
		got, _, err := ix.Query(context.Background(), q, want.K, exhaustive)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, fmt.Sprintf("after the mutations, query %d", qi), got, want.Then.Results[qi])
	}
}

// Open rewrites the fixture's trees, written in the interleaved leaf
// layout, once: into generation 2 through the tree writer, entry for
// entry — keys and slots exactly, each distance coded within the new
// tree's error bound — committed through meta.json. The vector store
// and the WAL keep their bytes, deleted.bin's marks move into meta.json,
// and a second Open rewrites nothing.
func TestOpenRewritesLegacyTrees(t *testing.T) {
	fixture := filepath.Join("testdata", "parent-layout", "index")
	dir := t.TempDir()
	copyDir(t, fixture, dir)
	type entry struct {
		key  string
		slot uint64
		rd   []float32
	}
	legacy := make([][]entry, 2)
	for tr := range legacy {
		pgr, err := pager.Open(filepath.Join(fixture, fmt.Sprintf("tree_%02d.g1.pg", tr)), pager.Options{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rdbtree.Open(pgr); !errors.Is(err, bptree.ErrLegacyLayout) {
			t.Fatalf("tree %d of the fixture opens with %v, want ErrLegacyLayout", tr, err)
		}
		err = bptree.ReadLegacy(pgr, 8, 8+4*3, func(k, v []byte) error {
			rd := make([]float32, 3)
			for i := range rd {
				rd[i] = math.Float32frombits(binary.LittleEndian.Uint32(v[8+4*i:]))
			}
			legacy[tr] = append(legacy[tr], entry{string(k), binary.BigEndian.Uint64(v), rd})
			return nil
		})
		pgr.Close()
		if err != nil || len(legacy[tr]) == 0 {
			t.Fatalf("tree %d: read %d legacy entries, %v", tr, len(legacy[tr]), err)
		}
	}

	for range 2 {
		ix, err := Open(dir, OpenOptions{MemtableMaxVectors: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if ix.gen != 2 {
			t.Fatalf("opened generation %d, want 2", ix.gen)
		}
		for tr, want := range legacy {
			var got []entry
			err := ix.trees[tr].Check(func(k []byte, e rdbtree.Entry) error {
				got = append(got, entry{string(k), e.ID, slices.Clone(e.RefDists)})
				return nil
			})
			if err != nil || len(got) != len(want) {
				t.Fatalf("tree %d after the rewrite: %d entries (%v), the legacy tree holds %d", tr, len(got), err, len(want))
			}
			eps := ix.trees[tr].Scale().Eps
			for i, g := range got {
				if w := want[i]; g.key != w.key || g.slot != w.slot || !codedWithin(g.rd, w.rd, eps) {
					t.Fatalf("tree %d entry %d after the rewrite: %+v, the legacy tree holds %+v (ε %v)", tr, i, g, w, eps)
				}
			}
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		m, err := readMeta(dir)
		if err != nil || m.Gen != 2 {
			t.Fatalf("meta.json commits generation %d (%v), want 2", m.Gen, err)
		}
		trees, _ := filepath.Glob(filepath.Join(dir, "tree_*.pg"))
		if want := []string{filepath.Join(dir, "tree_00.g2.pg"), filepath.Join(dir, "tree_01.g2.pg")}; !slices.Equal(trees, want) {
			t.Fatalf("tree files %v, want %v", trees, want)
		}
		for _, name := range []string{"vectors.pg", walFile} {
			got, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := os.ReadFile(filepath.Join(fixture, name)); !bytes.Equal(got, want) {
				t.Errorf("%s changed", name)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, deletedFile)); !os.IsNotExist(err) {
			t.Errorf("%s left beside the meta.json that holds its marks (stat err %v)", deletedFile, err)
		}
		if want := []uint64{3, 77, 250, 499, 510}; !slices.Equal(m.Purged, want) {
			t.Errorf("meta.json purges %v, the fixture's deleted.bin purges %v", m.Purged, want)
		}
	}
}

// codedWithin reports whether each decoded distance lies within eps of
// the float32 one it was coded from.
func codedWithin(got, want []float32, eps float64) bool {
	return slices.EqualFunc(got, want, func(g, w float32) bool {
		return math.Abs(float64(g)-float64(w)) <= eps
	})
}
