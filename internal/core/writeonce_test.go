package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/hd-index/hdindex/internal/data"
	"github.com/hd-index/hdindex/internal/iofault"
	"github.com/hd-index/hdindex/internal/pager"
)

// pageFiles maps the name of every *.pg file in dir to its bytes.
func pageFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.pg"))
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, path := range paths {
		if files[filepath.Base(path)], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// An Open, fifty queries and a Close write nothing to the index's page
// files: under a rule that fails every write to a *.pg file, every query
// answers, Close returns no error, and every page file keeps its bytes
// and its modification time.
func TestReadOnlySessionWritesNothing(t *testing.T) {
	ds := data.SIFTLike(2000, 41)
	dir := filepath.Join(t.TempDir(), "ix")
	ix, err := Build(dir, ds.Vectors, Params{Tau: 4, Omega: 8, Alpha: 256, Gamma: 64, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	before := pageFiles(t, dir)
	if len(before) != 6 {
		t.Fatalf("%d page files, want 4 trees, vectors.pg and ids.pg", len(before))
	}
	// An mtime in the past, which any write would move.
	past := time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC)
	for name := range before {
		if err := os.Chtimes(filepath.Join(dir, name), past, past); err != nil {
			t.Fatal(err)
		}
	}

	restore := iofault.SetGlobal(iofault.NewInjector(iofault.Rule{PathGlob: "*.pg", Op: iofault.OpWrite}))
	defer restore()
	ix, err = Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range ds.PerturbedQueries(50, 0.02, 42) {
		if _, _, err := ix.Query(context.Background(), q, 10, SearchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Close(); err != nil {
		t.Fatalf("Close of a session that only read: %v", err)
	}
	restore()

	after := pageFiles(t, dir)
	for name, b := range before {
		if !bytes.Equal(after[name], b) {
			t.Errorf("%s changed in a session that only read", name)
		}
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !st.ModTime().Equal(past) {
			t.Errorf("%s was modified at %v in a session that only read", name, st.ModTime())
		}
	}
}

// Build writes every data page of every page file exactly once, and the
// superblock twice: at the create and at the sync that records the page
// count and header. A rule that lets through each file's data pages plus
// two writes and fails the next leaves Build and the index's Close
// untouched; a budget one write smaller, on any one file, fails the
// Build. The served vectors.pg's own counters say the same. Nothing is
// read back.
func TestBuildWritesEachPageOnce(t *testing.T) {
	vecs := data.SIFTLike(2000, 43).Vectors
	p := Params{Tau: 2, Omega: 8, Alpha: 128, Gamma: 32, Seed: 6}
	dir := filepath.Join(t.TempDir(), "ix")
	build := func(rules ...iofault.Rule) error {
		defer iofault.SetGlobal(iofault.NewInjector(rules...))()
		ix, err := Build(dir, vecs, p)
		if err != nil {
			return err
		}
		return ix.Close()
	}

	ix, err := Build(dir, vecs, p)
	if err != nil {
		t.Fatal(err)
	}
	dataPages := make(map[string]int64)
	for name := range pageFiles(t, dir) {
		pgr, err := pager.Open(filepath.Join(dir, name), pager.Options{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		dataPages[name] = int64(pgr.PageCount()) - 1
		pgr.Close()
	}
	if len(dataPages) != 4 {
		t.Fatalf("%d page files, want 2 trees, vectors.pg and ids.pg", len(dataPages))
	}
	if st := ix.vectors.Pager().Stats(); st.Writes != uint64(dataPages["vectors.pg"])+2 || st.Reads != 0 {
		t.Fatalf("vectors.pg: %d writes and %d reads for %d data pages, want %d and 0", st.Writes, st.Reads, dataPages["vectors.pg"], dataPages["vectors.pg"]+2)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	budget := func(slack map[string]int64) []iofault.Rule {
		var rules []iofault.Rule
		for name, n := range dataPages {
			rules = append(rules, iofault.Rule{PathGlob: name, Op: iofault.OpWrite, AfterCalls: n + 2 + slack[name]})
		}
		return rules
	}
	if err := build(budget(nil)...); err != nil {
		t.Fatalf("a Build within each file's data pages and two superblock writes: %v", err)
	}
	for name := range dataPages {
		if err := build(budget(map[string]int64{name: -1})...); !errors.Is(err, pager.ErrIO) {
			t.Errorf("%s: a Build one write short of its %d data pages and two superblock writes: %v, want ErrIO", name, dataPages[name], err)
		}
	}
}
