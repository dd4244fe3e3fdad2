package core

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/hd-index/hdindex/internal/pager"
	"github.com/hd-index/hdindex/internal/vecmath"
)

// Open answers corrupt headers with an error. Each case panicked before
// Open checked them: a τ of 0 divided by zero deriving η, and a
// vectors.pg of another dimensionality opened cleanly and then panicked
// in the first query's distance.
func TestOpenRejectsCorruptHeaders(t *testing.T) {
	root := t.TempDir()
	mk := func(name string, dim int, layout storeLayout) string {
		dir := filepath.Join(root, name)
		ix, err := build(context.Background(), dir, testVectorsFlatTie(300, dim, 5), Params{Tau: 2, Omega: 8, M: 3, Seed: 1}, layout)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	bytes16, float16, bytes8 := mk("bytes16", 16, layoutTree0), mk("float16", 16, layoutIDOrder), mk("bytes8", 8, layoutTree0)
	swap := func(t *testing.T, dir, file, from string) {
		t.Helper()
		buf, err := os.ReadFile(filepath.Join(from, file))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, file), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	metaWith := func(t *testing.T, dir, old, new string) {
		t.Helper()
		buf, err := os.ReadFile(filepath.Join(dir, metaFile))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(buf, []byte(old)) {
			t.Fatalf("meta.json has no %s", old)
		}
		if err := os.WriteFile(filepath.Join(dir, metaFile), bytes.Replace(buf, []byte(old), []byte(new), 1), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for name, corrupt := range map[string]func(t *testing.T, dir string){
		"tau 0":             func(t *testing.T, dir string) { metaWith(t, dir, `"Tau": 2`, `"Tau": 0`) },
		"nu off the domain": func(t *testing.T, dir string) { metaWith(t, dir, `"nu": 16`, `"nu": 8`) },
		"vectors of 8 dims": func(t *testing.T, dir string) { swap(t, dir, "vectors.pg", bytes8) },
		// A byte base on an index that clusters nothing.
		"bytes, no ids.pg": func(t *testing.T, dir string) {
			swap(t, dir, "vectors.pg", bytes16)
			swap(t, dir, metaFile, float16)
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "ix")
			if err := os.Mkdir(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			copyDir(t, bytes16, dir)
			corrupt(t, dir)
			ix, err := Open(dir, OpenOptions{})
			if err == nil {
				ix.Close()
				t.Fatal("Open succeeded")
			}
			t.Log(err)
		})
	}
}

// FuzzMeta feeds meta.json's decoder arbitrary bytes: decodeMeta answers
// with an error or with a descriptor newIndex derives an index from that
// can place a query on every curve and measure it against every
// reference, and whose marks and purged ids load into the delete set or
// are an error — never a panic. Seeded from the descriptors a Build
// writes, the committed parent-layout fixture's, the τ = 0 that used to
// divide by zero, and Build's with marks and purged ids, one of them past
// the slot space.
func FuzzMeta(f *testing.F) {
	dir := filepath.Join(f.TempDir(), "ix")
	ix, err := Build(dir, testVectorsFlatTie(300, 16, 5), Params{Tau: 2, Omega: 8, M: 3, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	ix.Close()
	for _, path := range []string{filepath.Join(dir, metaFile), filepath.Join("testdata", "parent-layout", "index", metaFile)} {
		meta, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(meta)
		f.Add(bytes.Replace(meta, []byte(`"Tau": 2`), []byte(`"Tau": 0`), 1))
		f.Add(bytes.Replace(meta, []byte(`"nu": 16`), []byte(`"nu": 12`), 1))
	}
	m, err := readMeta(dir)
	if err != nil {
		f.Fatal(err)
	}
	// The built directory's ids.pg places the marks as Open would.
	sp, err := pager.Open(filepath.Join(dir, slotFile), pager.Options{ReadOnly: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { sp.Close() })
	slots, err := openSlotMap(sp, m.Clustered)
	if err != nil {
		f.Fatal(err)
	}
	for _, purged := range [][]uint64{{2, 7, 299}, {2, 1 << 40}} {
		m.Deleted, m.Purged = []uint64{1, 5, 7}, purged
		meta, err := json.MarshalIndent(&m, "", "  ")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(meta)
	}
	f.Fuzz(func(t *testing.T, meta []byte) {
		m, err := decodeMeta(meta)
		if err != nil {
			return
		}
		ix, err := newIndex("", m)
		defer ix.Close()
		if err != nil {
			return
		}
		q := make([]float32, ix.nu)
		coords := make([]uint32, ix.eta)
		for tr, quant := range ix.quants {
			quant.Coords(coords, q[tr*ix.eta:(tr+1)*ix.eta])
			ix.curve.Encode(nil, coords)
		}
		for _, r := range ix.refs {
			vecmath.Dist(q, r)
		}
		ix.slots = slots
		err = ix.addMarks(m.Deleted, m.Purged)
		ix.slots = slotMap{} // every run shares the pager: Close leaves it open
		if err == nil && ix.DeletedCount() > len(m.Deleted)+len(m.Purged) {
			t.Fatalf("%d marks and %d purged ids loaded as %d", len(m.Deleted), len(m.Purged), ix.DeletedCount())
		}
	})
}

// DisableCache is a property of an open index, not of its directory:
// Build leaves it out of meta.json, and Open takes it from OpenOptions
// alone — also on a directory whose meta.json still records it. With
// the pool off a repeated query reads its pages again; with it on, the
// pool holds them.
func TestMetaLeavesDisableCacheOut(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ix")
	ix, err := Build(dir, testVectorsFlatTie(300, 16, 5), Params{Tau: 2, Omega: 8, M: 3, DisableCache: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	meta, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(meta, []byte("DisableCache")) {
		t.Fatalf("meta.json records DisableCache:\n%s", meta)
	}

	fixture := t.TempDir()
	copyDir(t, filepath.Join("testdata", "parent-layout", "index"), fixture)
	if meta, err := os.ReadFile(filepath.Join(fixture, metaFile)); err != nil || !bytes.Contains(meta, []byte(`"DisableCache": false`)) {
		t.Fatalf("the parent-layout fixture's meta.json should record DisableCache (err %v)", err)
	}
	for _, d := range []string{dir, fixture} {
		for _, off := range []bool{true, false} {
			ix := openOrFatal(t, d, OpenOptions{DisableCache: off})
			q := make([]float32, ix.Dim())
			var reads uint64
			for range 2 {
				_, st, err := ix.Query(context.Background(), q, 5, SearchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				reads = st.PageReads
			}
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
			if (reads > 0) != off {
				t.Errorf("%s opened with DisableCache %v: a repeated query read %d pages", d, off, reads)
			}
		}
	}
}
