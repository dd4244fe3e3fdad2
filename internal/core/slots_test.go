package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/hd-index/hdindex/internal/data"
	"github.com/hd-index/hdindex/internal/pager"
	"github.com/hd-index/hdindex/internal/rdbtree"
)

// writeSlotFile lays header and data out as a structurally valid pager
// file — so the pager's own superblock checks pass and the bytes reach
// the slot-map decoder — and returns it opened.
func writeSlotFile(t testing.TB, header, data []byte) *pager.Pager {
	t.Helper()
	pgr, err := pager.Open(filepath.Join(t.TempDir(), slotFile), pager.Options{Create: true, PageSize: 256, PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pgr.Close() })
	for len(data) > 0 {
		buf := make([]byte, pgr.PageSize())
		data = data[copy(buf, data):]
		if err := pgr.Write(pager.PageID(pgr.PageCount()), buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := pgr.SetMeta(header); err != nil {
		t.Skip("header does not fit a superblock") // nothing of ours to decode
	}
	return pgr
}

// slotFileParts reads back what writeSlotFile takes: ids.pg's header and
// its data region.
func slotFileParts(t testing.TB, path string) (header, data []byte) {
	t.Helper()
	pgr, err := pager.Open(path, pager.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pgr.Close()
	for id := uint64(1); id < pgr.PageCount(); id++ {
		v, err := pgr.View(pager.PageID(id))
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, v.Data...)
		v.Release()
	}
	return pgr.Meta(), data
}

func TestSlotMapRoundTrip(t *testing.T) {
	order := []uint32{3, 0, 4, 1, 2}
	slotOf := []uint64{1, 3, 4, 0, 2}
	pgr, err := pager.Open(filepath.Join(t.TempDir(), slotFile), pager.Options{Create: true, PageSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer pgr.Close()
	if err := createSlotMap(pgr, order, slotOf); err != nil {
		t.Fatal(err)
	}
	re, err := openSlotMap(pgr, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, sm := range []slotMap{re, {}} {
		for slot := uint64(0); slot < 8; slot++ {
			wantID := slot
			if slot < sm.base {
				wantID = uint64(order[slot])
			}
			id, err := sm.id(slot)
			if err != nil || id != wantID {
				t.Fatalf("base %d: id(%d) = %d, %v; want %d", sm.base, slot, id, err, wantID)
			}
			if back, err := sm.slot(id); err != nil || back != slot {
				t.Fatalf("base %d: slot(%d) = %d, %v; want %d", sm.base, id, back, err, slot)
			}
		}
	}
	if _, err := openSlotMap(pgr, 4); !errors.Is(err, ErrSlotMap) {
		t.Fatalf("a base other than the header's: %v, want ErrSlotMap", err)
	}
}

// FuzzSlotMap feeds the layout decoder — the `clustered` field of
// meta.json, ids.pg's header, ids.pg's data region — arbitrary bytes:
// whatever they are, opening answers with an error or with a map whose
// every lookup is an error or a value below the base. Never a panic,
// never an id or slot outside the clustered range. Seeded from the files
// a Build writes.
func FuzzSlotMap(f *testing.F) {
	dir := filepath.Join(f.TempDir(), "ix")
	ix, err := Build(dir, testVectorsFlatTie(300, 16, 5), Params{Tau: 2, Omega: 8, M: 3, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	ix.Close()
	meta, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		f.Fatal(err)
	}
	header, data := slotFileParts(f, filepath.Join(dir, slotFile))
	data = data[:2*4*300] // the entries, without the last page's padding
	old, err := os.ReadFile(filepath.Join("testdata", "parent-layout", "index", metaFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(meta, header, data)
	f.Add(meta, header, data[:len(data)/2])
	f.Add(meta, header[:len(header)-1], data)
	f.Add(meta, encodeSlotHeader(1<<40), data)
	f.Add(bytes.Replace(meta, []byte(`"clustered": 300`), []byte(`"clustered": 301`), 1), header, data)
	f.Add(old, []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, meta, header, data []byte) {
		var m metaJSON
		if json.Unmarshal(meta, &m) != nil {
			return
		}
		if base, err := decodeSlotHeader(header); err == nil && !bytes.Equal(encodeSlotHeader(base), header[:slotHeaderLen]) {
			t.Fatalf("header %x decodes to base %d, which encodes differently", header, base)
		}
		sm, err := openSlotMap(writeSlotFile(t, header, data), m.Clustered)
		if err != nil {
			return
		}
		for _, x := range []uint64{0, 1, sm.base / 2, sm.base - 1, sm.base, sm.base + 7, 1 << 40} {
			for _, lookup := range []func(uint64) (uint64, error){sm.id, sm.slot} {
				y, err := lookup(x)
				if err == nil && (x < sm.base) != (y < sm.base) {
					t.Fatalf("base %d: lookup(%d) = %d crosses the clustered range", sm.base, x, y)
				}
			}
		}
	})
}

// An index holds at most as many objects as there are 32-bit slots:
// Build and Insert refuse one past the slot space — lowered here to 200
// — with rdbtree.ErrIDRange, and the refused insert leaves no trace.
func TestSlotSpaceLimit(t *testing.T) {
	defer func(n uint64) { slotSpace = n }(slotSpace)
	slotSpace = 200
	ds := data.Generate(data.Config{N: 201, Dim: 8, Lo: 0, Hi: 1, Seed: 3})
	p := Params{Tau: 2, Omega: 8, M: 3, Alpha: 64, Gamma: 16, Seed: 4}
	dir := filepath.Join(t.TempDir(), "ix")
	if _, err := Build(dir, ds.Vectors, p); !errors.Is(err, rdbtree.ErrIDRange) {
		t.Fatalf("Build of 201 objects into 200 slots: %v, want ErrIDRange", err)
	}
	ix, err := Build(dir, ds.Vectors[:199], p)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if id, err := ix.Insert(ds.Vectors[199]); err != nil || id != 199 {
		t.Fatalf("Insert into the last slot: id %d, %v", id, err)
	}
	if _, err := ix.Insert(ds.Vectors[200]); !errors.Is(err, rdbtree.ErrIDRange) {
		t.Fatalf("Insert past the slot space: %v, want ErrIDRange", err)
	}
	if err := ix.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := ix.Count(); n != 200 {
		t.Fatalf("Count = %d after the refused insert, want 200", n)
	}
}
