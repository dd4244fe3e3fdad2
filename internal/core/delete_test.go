package core

import (
	"context"
	"encoding/binary"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"github.com/hd-index/hdindex/internal/data"
)

func TestDeleteHidesObject(t *testing.T) {
	ds := data.Generate(data.Config{N: 500, Dim: 16, Lo: 0, Hi: 1, Seed: 61})
	dir := filepath.Join(t.TempDir(), "ix")
	p := Params{Tau: 2, Omega: 8, M: 3, Alpha: 500, Beta: 500, Gamma: 500, Seed: 62}
	ix, err := Build(dir, ds.Vectors, p)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	// Query right on top of object 123: it must rank first.
	q := ds.Vectors[123]
	res, _, err := ix.Query(context.Background(), q, 3, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID != 123 {
		t.Fatalf("pre-delete nearest = %d, want 123", res[0].ID)
	}
	second := res[1].ID

	if err := ix.Delete(123); err != nil {
		t.Fatal(err)
	}
	if ix.DeletedCount() != 1 {
		t.Fatalf("DeletedCount = %d", ix.DeletedCount())
	}
	res, _, err = ix.Query(context.Background(), q, 3, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.ID == 123 {
			t.Fatal("deleted object returned")
		}
	}
	if res[0].ID != second {
		t.Fatalf("post-delete nearest = %d, want the former runner-up %d", res[0].ID, second)
	}

	// Undelete restores it.
	if err := ix.Undelete(123); err != nil {
		t.Fatal(err)
	}
	res, _, err = ix.Query(context.Background(), q, 1, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID != 123 {
		t.Fatal("undelete did not restore the object")
	}
}

func TestDeletePersistsAcrossReopen(t *testing.T) {
	ds := data.Generate(data.Config{N: 300, Dim: 16, Lo: 0, Hi: 1, Seed: 63})
	dir := filepath.Join(t.TempDir(), "ix")
	p := Params{Tau: 2, Omega: 8, M: 3, Alpha: 300, Beta: 300, Gamma: 300, Seed: 64}
	ix, err := Build(dir, ds.Vectors, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(42); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.DeletedCount() != 1 {
		t.Fatalf("reopened DeletedCount = %d", re.DeletedCount())
	}
	res, _, err := re.Query(context.Background(), ds.Vectors[42], 1, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID == 42 {
		t.Fatal("deletion mark lost across reopen")
	}
}

func TestDeleteValidation(t *testing.T) {
	ds := data.Generate(data.Config{N: 100, Dim: 8, Lo: 0, Hi: 1, Seed: 65})
	dir := filepath.Join(t.TempDir(), "ix")
	ix, err := Build(dir, ds.Vectors, Params{Tau: 2, Omega: 8, M: 2, Alpha: 100, Beta: 100, Gamma: 100, Seed: 66})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if err := ix.Delete(1000); err == nil {
		t.Error("deleting unknown id must fail")
	}
	// Double delete is a no-op.
	if err := ix.Delete(5); err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(5); err != nil {
		t.Fatal(err)
	}
	if ix.DeletedCount() != 1 {
		t.Fatalf("double delete counted twice: %d", ix.DeletedCount())
	}
	// Undelete of a never-deleted id is a no-op.
	if err := ix.Undelete(7); err != nil {
		t.Fatal(err)
	}
}

// FuzzDeleteSet feeds deleted.bin to loadDeleteSet in both layouts —
// v1, a count and that many marked ids; v2, a magic, the marks and the
// purged ids. A corrupt file is an error, never a panic, and a file
// that loads commits (as meta.json's two lists) to sets that load back
// the same. The seeds are the parent-layout fixture's file, a v2 file of
// the sets deletes around a compaction leave, the v1 file
// TestOpenPrunesStaleDeleteMarks writes and the corrupt one
// TestOpenCorruptDeleteFile does.
func FuzzDeleteSet(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "parent-layout", "index", deletedFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	dir := filepath.Join(f.TempDir(), "ix")
	ds := data.Generate(data.Config{N: 300, Dim: 16, Lo: 0, Hi: 1, Seed: 81})
	ix, err := Build(dir, ds.Vectors, Params{Tau: 2, Omega: 8, M: 3, Seed: 82})
	if err != nil {
		f.Fatal(err)
	}
	for _, v := range ds.PerturbedQueries(20, 0.05, 83) {
		if _, err = ix.Insert(v); err != nil {
			f.Fatal(err)
		}
	}
	for i, id := range []uint64{7, 150, 305, 41, 310} {
		if err = ix.Delete(id); err != nil {
			f.Fatal(err)
		}
		if i == 2 {
			if err = ix.Compact(context.Background()); err != nil {
				f.Fatal(err)
			}
		}
	}
	marked, purged := ix.deleted.lists(nil)
	if err = ix.Close(); err != nil {
		f.Fatal(err)
	}
	written := binary.BigEndian.AppendUint64(nil, deletedMagicV2)
	for _, section := range [][]uint64{marked, purged} {
		written = binary.BigEndian.AppendUint64(written, uint64(len(section)))
		for _, id := range section {
			written = binary.BigEndian.AppendUint64(written, id)
		}
	}
	f.Add(written)
	f.Add(written[:len(written)-3])
	f.Add(binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, 1), 200))
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, buf []byte) {
		ix := &Index{dir: t.TempDir(), deleted: newDeleteSet()}
		if err := os.WriteFile(filepath.Join(ix.dir, deletedFile), buf, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ix.loadDeleteSet(); err != nil {
			return
		}
		d := ix.deleted
		again := &Index{deleted: newDeleteSet()}
		if err := again.addMarks(d.lists(nil)); err != nil {
			t.Fatalf("the committed lists do not load: %v", err)
		}
		if a := again.deleted; !maps.Equal(a.marks, d.marks) {
			t.Fatalf("round trip changed the marks: %v → %v", d.marks, a.marks)
		}
		if again.deleted.len() != d.len() {
			t.Fatalf("round trip changed the count: %d → %d", d.len(), again.deleted.len())
		}
	})
}
