package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
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
	Options    fixtureOptions `json:"options"`
	Results    [][]Result     `json:"results"`
	Candidates []int          `json:"candidates"`
}

// fixtureOptions is a cascade shape as the fixture's commit recorded
// its SearchOptions: Go field names, and Ptolemaic as a mode (0 = the
// built default, 1 = on, 2 = off).
type fixtureOptions struct {
	Alpha, Beta, Gamma, MaxCandidates int
	Ptolemaic                         int
}

func (f fixtureOptions) searchOptions() SearchOptions {
	o := SearchOptions{Alpha: f.Alpha, Beta: f.Beta, Gamma: f.Gamma, MaxCandidates: f.MaxCandidates}
	if f.Ptolemaic != 0 {
		o.Ptolemaic = boolp(f.Ptolemaic == 1)
	}
	return o
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
			got, st, err := ix.Query(context.Background(), q, want.K, shape.Options.searchOptions())
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

// Open rebuilds the fixture's trees, written in the interleaved leaf
// layout, once: into generation 2 through Build's tree writer, from the
// committed vectors, committed through meta.json. Each rebuilt tree
// holds the fixture's 535 entries — 540 ids below the count, 5 purged —
// and passes Check. The vector store and the WAL keep their bytes,
// deleted.bin's marks move into meta.json, and a second Open rebuilds
// nothing.
func TestOpenRebuildsLegacyTrees(t *testing.T) {
	fixture := filepath.Join("testdata", "parent-layout", "index")
	dir := t.TempDir()
	copyDir(t, fixture, dir)
	for tr := range 2 {
		pgr, err := pager.Open(filepath.Join(fixture, fmt.Sprintf("tree_%02d.g1.pg", tr)), pager.Options{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		_, err = rdbtree.Open(pgr)
		pgr.Close()
		if !errors.Is(err, bptree.ErrOldLayout) {
			t.Fatalf("tree %d of the fixture opens with %v, want ErrOldLayout", tr, err)
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
		for tr, tree := range ix.trees {
			n := 0
			err := tree.Check(func([]byte, rdbtree.Entry) error { n++; return nil })
			if err != nil || n != 535 {
				t.Fatalf("tree %d after the rebuild: %d entries (%v), want 535", tr, n, err)
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
