package core

import (
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"github.com/hd-index/hdindex/internal/data"
)

func buildTiny(t *testing.T) (string, *data.Dataset) {
	t.Helper()
	ds := data.Generate(data.Config{N: 200, Dim: 16, Lo: 0, Hi: 1, Seed: 71})
	dir := filepath.Join(t.TempDir(), "ix")
	ix, err := Build(dir, ds.Vectors, Params{Tau: 2, Omega: 8, M: 3, Alpha: 64, Gamma: 16, Seed: 72})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, ds
}

func TestOpenMissingMeta(t *testing.T) {
	dir, _ := buildTiny(t)
	if err := os.Remove(filepath.Join(dir, metaFile)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, OpenOptions{}); err == nil {
		t.Fatal("open without meta.json must fail")
	}
}

func TestOpenCorruptMeta(t *testing.T) {
	dir, _ := buildTiny(t)
	if err := os.WriteFile(filepath.Join(dir, metaFile), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, OpenOptions{}); err == nil {
		t.Fatal("open with corrupt meta.json must fail")
	}
}

func TestOpenMissingTreeFile(t *testing.T) {
	dir, _ := buildTiny(t)
	if err := os.Remove(filepath.Join(dir, "tree_01.pg")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, OpenOptions{}); err == nil {
		t.Fatal("open with a missing tree file must fail")
	}
}

func TestOpenTruncatedVectors(t *testing.T) {
	dir, _ := buildTiny(t)
	path := filepath.Join(dir, "vectors.pg")
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()/2); err != nil {
		t.Fatal(err)
	}
	ix, err := Open(dir, OpenOptions{})
	if err != nil {
		return // failing at open is acceptable
	}
	defer ix.Close()
	// If open succeeded (superblock intact), reads into the truncated
	// region must fail rather than return garbage silently.
	q := make([]float32, 16)
	var sawErr bool
	for id := uint64(0); id < ix.Count(); id++ {
		if _, err := ix.vectors.Get(id, q); err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("reads from truncated vector store must eventually error")
	}
}

// Rebuilding into a directory that already holds an index must not
// inherit any of its state — in particular deletion marks, which would
// silently hide arbitrary vectors of the new dataset.
func TestRebuildClearsStaleState(t *testing.T) {
	dir, ds := buildTiny(t)
	ix, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(7); err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(11); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Build(dir, ds.Vectors, Params{Tau: 2, Omega: 8, M: 3, Alpha: 64, Gamma: 16, Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	fresh, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if n := fresh.DeletedCount(); n != 0 {
		t.Fatalf("rebuilt index inherited %d deletion marks", n)
	}
}

// A crash can persist a delete mark for an insert whose vector append
// never flushed (marks are written synchronously, appends on Flush).
// Open must prune such marks: the id gets reassigned to a later insert,
// which must not be born deleted and invisible to every search.
func TestOpenPrunesStaleDeleteMarks(t *testing.T) {
	dir, _ := buildTiny(t) // 200 vectors, ids 0..199
	buf := make([]byte, 16)
	binary.BigEndian.PutUint64(buf, 1)
	binary.BigEndian.PutUint64(buf[8:], 200) // mark the lost id
	if err := os.WriteFile(filepath.Join(dir, deletedFile), buf, 0o644); err != nil {
		t.Fatal(err)
	}

	ix, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n := ix.DeletedCount(); n != 0 {
		t.Fatalf("stale mark survived open: DeletedCount = %d", n)
	}
	vec := make([]float32, 16)
	for d := range vec {
		vec[d] = 0.77
	}
	id, err := ix.Insert(vec)
	if err != nil {
		t.Fatal(err)
	}
	if id != 200 {
		t.Fatalf("refill insert assigned id %d, want 200", id)
	}
	res, _, err := ix.Query(context.Background(), vec, 1, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID != 200 {
		t.Fatalf("refilled id 200 invisible to search: got %d", res[0].ID)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	// The prune must have been persisted, not just applied in memory.
	re, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n := re.DeletedCount(); n != 0 {
		t.Fatalf("stale mark resurrected after reopen: DeletedCount = %d", n)
	}
	res, _, err = re.Query(context.Background(), vec, 1, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID != 200 {
		t.Fatalf("refilled id 200 lost after reopen: got %d", res[0].ID)
	}
}

func TestOpenCorruptDeleteFile(t *testing.T) {
	dir, _ := buildTiny(t)
	if err := os.WriteFile(filepath.Join(dir, deletedFile), []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, OpenOptions{}); err == nil {
		t.Fatal("open with corrupt deleted.bin must fail")
	}
}
