package bptree

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
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

// rdbTreeFile lays treeFile's shape out as an RDB-tree stores it: the
// 8-byte keys, the stored prefix of η = 16, ω = 8's 16-byte Hilbert
// keys, each value a little-endian 4-byte slot and
// m = 3 uint16 distance codes, and after the tree header the RDB-tree's
// metadata — η, ω and m as big-endian uint32s, then its scale s and
// error bound ε as big-endian float64 bits, which this package carries
// without reading.
func rdbTreeFile(t testing.TB, s, eps float64) (header, pages []byte) {
	t.Helper()
	tr, _ := mkTree(t, Config{KeyLen: 8, ValLen: 4 + 2*3, LeafCap: 3}, pager.Options{PageSize: treePageSize})
	extra := make([]byte, 12, 28)
	for i, v := range []uint32{16, 8, 3} {
		binary.BigEndian.PutUint32(extra[4*i:], v)
	}
	extra = binary.BigEndian.AppendUint64(extra, math.Float64bits(s))
	extra = binary.BigEndian.AppendUint64(extra, math.Float64bits(eps))
	if err := tr.SetExtra(extra); err != nil {
		t.Fatal(err)
	}
	var src SliceSource
	for i := 0; i < 60; i++ {
		src.Keys = append(src.Keys, u64key(uint64(i/4)))
		v := binary.LittleEndian.AppendUint32(nil, uint32(i))
		for r := range 3 {
			v = binary.LittleEndian.AppendUint16(v, uint16(i*1000+r))
		}
		src.Values = append(src.Values, v)
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
		buf := make([]byte, treePageSize)
		pages = pages[copy(buf, pages):]
		if err := pgr.Write(pager.PageID(pgr.PageCount()), buf); err != nil {
			t.Fatal(err)
		}
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
		err = tr.WalkNearest(context.Background(), u64key(0), int(tr.Count()), func(run []byte, _ bool) { n += len(run) / tr.valLen })
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

// A separator that no longer bounds its children sends Seek, and so
// WalkNearest, to the wrong leaf, and the walk answers without an
// error. CheckLeaves descends the internal levels and catches it: here
// the first separator of the first internal node (page 21, over leaves
// 1–10) with its high byte set, above the keys of the child to its right.
func TestCheckLeavesCatchesABadSeparator(t *testing.T) {
	header, pages := treeFile(t)
	check := func(p []byte) error {
		tr, err := Open(writeTreeFile(t, header, p))
		if err != nil {
			t.Fatal(err)
		}
		return tr.CheckLeaves(func(k, v []byte) error { return nil })
	}
	if err := check(pages); err != nil {
		t.Fatalf("the intact tree: %v", err)
	}
	tr, err := Open(writeTreeFile(t, header, pages))
	if err != nil {
		t.Fatal(err)
	}
	p := slices.Clone(pages)
	node := treePage(p, 21)
	if nodeType(node) != pageInternal || internalCount(node) == 0 {
		t.Fatal("page 21 is not an internal node with separators")
	}
	tr.internalKey(node, 0)[0] ^= 0xFF
	if err := check(p); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a flipped separator byte: CheckLeaves = %v, want ErrCorrupt", err)
	}
}

// FuzzTreeFile feeds the tree header and its pages arbitrary bytes under
// a valid superblock: raw-byte mutation of a whole file mostly trips the
// superblock checksum and never reaches a node. Open, CheckLeaves, the
// cursor and WalkNearest answer a corrupt tree with errors — never a
// panic, a read outside a page, or an endless loop — and every run the
// walk passes lies inside one leaf's value run, is whole values, and the
// runs add up to at most the entries asked for. A header that names the
// interleaved layout of earlier versions is ErrOldLayout, whatever the
// pages hold. Seeded from treeFile, whose duplicate runs span leaves, its
// corruptions, its header naming the interleaved layout, and the RDB-tree
// layout of uint16 codes (rdbTreeFile): intact, cut short, and with a
// scale and error bound no tree may record.
func FuzzTreeFile(f *testing.F) {
	header, pages := treeFile(f)
	f.Add(header, pages)
	f.Add(header, pages[:len(pages)/2])
	for _, corrupt := range corruptions {
		p := slices.Clone(pages)
		corrupt(p)
		f.Add(header, p)
	}
	legacyHeader := slices.Clone(header)
	binary.BigEndian.PutUint16(legacyHeader[8:], layoutInterleaved)
	f.Add(legacyHeader, pages)
	rdbHeader, rdbPages := rdbTreeFile(f, 1.0/64, 1.0/128)
	f.Add(rdbHeader, rdbPages)
	f.Add(rdbHeader, rdbPages[:len(rdbPages)/2])
	badHeader, badPages := rdbTreeFile(f, math.NaN(), -1)
	f.Add(badHeader, badPages)
	f.Fuzz(func(t *testing.T, header, pages []byte) {
		pgr := writeTreeFile(t, header, pages)
		tr, err := Open(pgr)
		if len(header) >= headerSize && binary.BigEndian.Uint16(header[8:]) == layoutInterleaved && !errors.Is(err, ErrOldLayout) {
			t.Fatalf("Open of a header naming the interleaved layout: %v, want ErrOldLayout", err)
		}
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
			walked := 0
			_ = tr.WalkNearest(context.Background(), q, steps, func(run []byte, _ bool) {
				if err := checkRun(tr, run); err != nil {
					t.Fatal(err)
				}
				if tr.valLen > 0 {
					walked += len(run) / tr.valLen
				}
			})
			if walked > steps {
				t.Fatalf("the walk passed %d entries, asked for %d", walked, steps)
			}
		}
	})
}
