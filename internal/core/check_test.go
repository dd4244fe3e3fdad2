package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hd-index/hdindex/internal/data"
	"github.com/hd-index/hdindex/internal/rdbtree"
)

// checkedIndex is a small index that has seen everything Check reasons
// about: a clustered base, a compacted tail, purged marks, live marks and
// a memtable. It is closed; the directory is returned.
func checkedIndex(t *testing.T) string {
	t.Helper()
	ds := data.Generate(data.Config{Name: "check", N: 700, Dim: 16, Clusters: 4, Lo: 0, Hi: 1, Seed: 71})
	dir := filepath.Join(t.TempDir(), "ix")
	ix, err := Build(dir, ds.Vectors[:500], Params{Tau: 2, Omega: 8, M: 3, Alpha: 128, Gamma: 32, Seed: 9, MemtableMaxVectors: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for _, v := range ds.Vectors[500:650] {
		if _, err := ix.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []uint64{4, 321, 600} {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	mustCheck(t, ix, "memtable and marks")
	if err := ix.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, v := range ds.Vectors[650:] {
		if _, err := ix.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Delete(77); err != nil {
		t.Fatal(err)
	}
	rep := mustCheck(t, ix, "compacted, with a new memtable")
	if rep.Vectors != 650 || rep.Clustered != 500 || rep.Purged != 3 || rep.Trees != 2 || rep.Verified != 647 {
		t.Fatalf("report %+v; want 650 vectors, 500 clustered, 3 purged, 2 trees, 647 entries verified", rep)
	}
	return dir
}

func mustCheck(t *testing.T, ix *Index, stage string) CheckReport {
	t.Helper()
	rep, err := ix.Check(context.Background())
	if err != nil {
		t.Fatalf("%s: %v", stage, err)
	}
	return rep
}

// openAndCheck reopens dir and returns Check's verdict.
func openAndCheck(t *testing.T, dir string) error {
	t.Helper()
	ix, err := Open(dir, OpenOptions{MemtableMaxVectors: 1 << 20})
	if err != nil {
		return err
	}
	defer ix.Close()
	_, err = ix.Check(context.Background())
	return err
}

// Check counts, per tree, the leaf entries whose stored key prefix
// equals the one before them, and reports the most: 50 duplicate
// vectors share their whole key with the vector they copy, so every tree
// holds at least 50 ties, whatever the cut bytes would have told apart.
func TestCheckReportsKeyTies(t *testing.T) {
	ds := data.Generate(data.Config{Name: "ties", N: 500, Dim: 32, Clusters: 4, Lo: 0, Hi: 1, Seed: 72})
	for i := range 50 {
		ds.Vectors = append(ds.Vectors, ds.Vectors[9*i])
	}
	ix, err := Build(filepath.Join(t.TempDir(), "ix"), ds.Vectors, Params{Tau: 2, Omega: 8, M: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if w := ix.treeConfig().KeyLen(); w != 16 {
		t.Fatalf("%d-byte Hilbert keys, want 16: the prefix would not cut", w)
	}
	if rep := mustCheck(t, ix, "duplicates"); rep.KeyTies < 50 || rep.KeyTies >= 550 {
		t.Fatalf("%d key-prefix ties in a tree over 550 vectors, 50 of them duplicates", rep.KeyTies)
	}
}

func TestCheckPassesOnHealthyDirectories(t *testing.T) {
	dir := checkedIndex(t)
	if err := openAndCheck(t, dir); err != nil {
		t.Fatalf("reopened: %v", err)
	}
	// A directory of the layout before the slot space is healthy too.
	old := t.TempDir()
	copyDir(t, filepath.Join("testdata", "parent-layout", "index"), old)
	if err := openAndCheck(t, old); err != nil {
		t.Fatalf("parent-layout fixture: %v", err)
	}
}

// Each corruption below leaves an index that opens and answers queries;
// only Check can tell.
func TestCheckCatchesSilentCorruption(t *testing.T) {
	pristine := checkedIndex(t)
	const page = 4096
	patch := func(t *testing.T, path string, off int64, fn func(b []byte)) {
		t.Helper()
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		b := make([]byte, 64)
		if _, err := f.ReadAt(b, off); err != nil {
			t.Fatal(err)
		}
		fn(b)
		if _, err := f.WriteAt(b, off); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name    string
		corrupt func(t *testing.T, dir string)
		want    string
	}{
		{"two vector records swapped", func(t *testing.T, dir string) {
			// Records are 64 bytes from page 1 on: exchange slots 10 and 300.
			path := filepath.Join(dir, "vectors.pg")
			var a, b [64]byte
			patch(t, path, page+10*64, func(x []byte) { copy(a[:], x) })
			patch(t, path, page+300*64, func(x []byte) { copy(b[:], x); copy(x, a[:]) })
			patch(t, path, page+10*64, func(x []byte) { copy(x, b[:]) })
		}, "its vector encodes to"},
		{"one coordinate of a vector nudged", func(t *testing.T, dir string) {
			// Too little to move the 8-bit Hilbert cell, enough to move
			// the reference distances.
			patch(t, filepath.Join(dir, "vectors.pg"), page+42*64, func(x []byte) {
				binary.LittleEndian.PutUint32(x, binary.LittleEndian.Uint32(x)+1<<12)
			})
		}, "stores distance"},
		{"slot→id entries exchanged without their inverse", func(t *testing.T, dir string) {
			patch(t, filepath.Join(dir, slotFile), page, func(x []byte) {
				a, b := binary.LittleEndian.Uint32(x), binary.LittleEndian.Uint32(x[4:])
				binary.LittleEndian.PutUint32(x, b)
				binary.LittleEndian.PutUint32(x[4:], a)
			})
		}, "ids.pg"},
		{"a leaf entry redirected to another vector's slot", func(t *testing.T, dir string) {
			// A leaf keeps its values apart from its keys, each a
			// little-endian slot ‖ distance codes: find slot 20's in tree 1
			// and point it at slot 21.
			ix, err := Open(dir, OpenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var entry []byte
			s := ix.trees[1].Scale().S
			err = ix.trees[1].ScanAll(func(k []byte, e rdbtree.Entry) bool {
				if e.ID == 20 {
					entry = binary.LittleEndian.AppendUint32(nil, 20)
					for _, d := range e.RefDists {
						entry = binary.LittleEndian.AppendUint16(entry, uint16(math.Round(float64(d)/s)))
					}
				}
				return entry == nil
			})
			ix.Close()
			if err != nil || entry == nil {
				t.Fatalf("slot 20 not found in tree 1 (%v)", err)
			}
			path := ix.treeGenPath(1, 1)
			file, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			at := bytes.Index(file, entry)
			if at < 0 || bytes.Contains(file[at+1:], entry) {
				t.Fatal("the entry's bytes are not unique in the tree file")
			}
			patch(t, path, int64(at), func(x []byte) { x[0] = 21 })
		}, "tree 1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, pristine, dir)
			c.corrupt(t, dir)
			err := openAndCheck(t, dir)
			if err == nil {
				t.Fatal("Check passed a corrupted directory")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Check failed with %q, want a mention of %q", err, c.want)
			}
		})
	}

	t.Run("stale generation file", func(t *testing.T) {
		dir := t.TempDir()
		copyDir(t, pristine, dir)
		ix, err := Open(dir, OpenOptions{MemtableMaxVectors: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		if err := os.WriteFile(filepath.Join(dir, "tree_00.g9.pg"), []byte("left behind"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ix.Check(context.Background()); err == nil || !strings.Contains(err.Error(), "stale tree file") {
			t.Fatalf("Check with a stale generation file: %v", err)
		}
	})
}
