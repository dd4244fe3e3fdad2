package bptree

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"path/filepath"
	"slices"
	"testing"

	"github.com/hd-index/hdindex/internal/pager"
)

// treePageSize is the page size of treeFile's tree and of every file
// writeTreeFile lays out.
const treePageSize = 256

// treeFile bulk-loads the corruption tests' tree — 60 entries, 8-byte
// keys in runs of four over leaves of three, so duplicate runs span
// leaves; 20 leaves under two internal nodes under the root — and
// returns its header and its pages after the superblock.
func treeFile(t testing.TB) (header, pages []byte) {
	t.Helper()
	tr, _ := mkTree(t, Config{KeyLen: 8, ValLen: 4, LeafCap: 3}, pager.Options{PageSize: treePageSize})
	var src SliceSource
	for i := 0; i < 60; i++ {
		src.Keys = append(src.Keys, u64key(uint64(i/4)))
		src.Values = append(src.Values, binary.BigEndian.AppendUint32(nil, uint32(i)))
	}
	if err := tr.BulkLoad(&src); err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id < tr.pgr.PageCount(); id++ {
		v, err := tr.pgr.View(pager.PageID(id))
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, v.Data...)
		v.Release()
	}
	return tr.pgr.Meta(), pages
}

// writeTreeFile lays header and pages out as a structurally valid pager
// file, so the bytes reach the tree's own decoder, and returns it open.
func writeTreeFile(t testing.TB, header, pages []byte) *pager.Pager {
	t.Helper()
	pgr, err := pager.Open(filepath.Join(t.TempDir(), "tree.pg"), pager.Options{Create: true, PageSize: treePageSize, PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pgr.Close() })
	for len(pages) > 0 {
		pg, err := pgr.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		pages = pages[copy(pg.Data, pages):]
		pg.MarkDirty()
		pg.Release()
	}
	if err := pgr.SetMeta(header); err != nil {
		t.Skip("header does not fit a superblock")
	}
	return pgr
}

// treePage returns page id of treeFile's pages.
func treePage(pages []byte, id int) []byte {
	return pages[(id-1)*treePageSize : id*treePageSize]
}

// corruptions each damage one field of treeFile's pages: a count past
// the page (queries read out of its bounds), a sibling link to an
// internal node (read as a leaf), a cycle of left links (Seek looped),
// and an empty leaf on the chain, which only an empty tree's root is.
var corruptions = map[string]func(pages []byte){
	"internal count": func(p []byte) {
		setInternalCount(treePage(p, len(p)/treePageSize), 0xFFFF) // the root
	},
	"leaf count": func(p []byte) { setLeafCount(treePage(p, 5), 0xFFFF) },
	"right link to an internal node": func(p []byte) {
		setLeafRight(treePage(p, 1), pager.PageID(len(p)/treePageSize))
	},
	"left link cycle": func(p []byte) { setLeafLeft(treePage(p, 1), 1) },
	"empty leaf":      func(p []byte) { setLeafCount(treePage(p, 2), 0) },
}

// A walk over the whole tree from its smallest key meets each of the
// corruptions and returns ErrCorrupt, where it used to panic or loop.
func TestCorruptPageIsAnError(t *testing.T) {
	header, pages := treeFile(t)
	walk := func(p []byte) (int, error) {
		tr, err := Open(writeTreeFile(t, header, p))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		err = tr.WalkNearest(context.Background(), u64key(0), int(tr.Count()), func([]byte) { n++ })
		return n, err
	}
	if n, err := walk(pages); n != 60 || err != nil {
		t.Fatalf("the intact tree: walked %d entries, %v; want 60, nil", n, err)
	}
	for name, corrupt := range corruptions {
		p := slices.Clone(pages)
		corrupt(p)
		if _, err := walk(p); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: WalkNearest = %v, want ErrCorrupt", name, err)
		}
	}
}

// FuzzTreeFile feeds the tree header and its pages arbitrary bytes under
// a valid superblock: raw-byte mutation of a whole file mostly trips the
// superblock checksum and never reaches a node. Open, CheckLeaves, the
// cursor and WalkNearest answer a corrupt tree with errors — never a
// panic, a read outside a page, or an endless loop. Seeded from
// treeFile, whose duplicate runs span leaves, and its corruptions.
func FuzzTreeFile(f *testing.F) {
	header, pages := treeFile(f)
	f.Add(header, pages)
	f.Add(header, pages[:len(pages)/2])
	for _, corrupt := range corruptions {
		p := slices.Clone(pages)
		corrupt(p)
		f.Add(header, p)
	}
	f.Fuzz(func(t *testing.T, header, pages []byte) {
		tr, err := Open(writeTreeFile(t, header, pages))
		if err != nil {
			return
		}
		_ = tr.CheckLeaves(func(k, v []byte) error { return nil })
		c := tr.NewCursor()
		defer c.Close()
		const steps = 100
		for _, q := range [][]byte{make([]byte, tr.KeyLen()), bytes.Repeat([]byte{0x80}, tr.KeyLen()), bytes.Repeat([]byte{0xFF}, tr.KeyLen())} {
			err := c.Seek(q)
			for i := 0; err == nil && c.Valid() && i < steps; i++ {
				_, _ = c.Key(), c.Value()
				err = c.Next()
			}
			err = c.Last()
			for i := 0; err == nil && c.Valid() && i < steps; i++ {
				err = c.Prev()
			}
			_ = tr.WalkNearest(context.Background(), q, steps, func([]byte) {})
		}
	})
}
