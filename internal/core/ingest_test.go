package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/hd-index/hdindex/internal/data"
	"github.com/hd-index/hdindex/internal/topk"
	"github.com/hd-index/hdindex/internal/vecmath"
)

// ingestParams keeps the memtable threshold far above every test's
// insert count, so compactions only happen when a test asks for one.
func ingestParams() Params {
	return Params{Tau: 4, Omega: 8, M: 4, Alpha: 256, Gamma: 64, Seed: 7,
		MemtableMaxVectors: 1 << 20}
}

// crashCopy snapshots dir into a sibling directory while the index that
// owns it is still open — the moral equivalent of SIGKILL: whatever the
// process wrote (and only that) is what recovery sees. The WAL
// group-commits before acknowledging, so every acked write is in the
// copy.
func crashCopy(t *testing.T, dir string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "crashed")
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			t.Fatalf("unexpected subdirectory %s in index dir", e.Name())
		}
		src, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(out, src); err != nil {
			t.Fatal(err)
		}
		src.Close()
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// bruteForce is the reference answer over an explicit vector set minus
// deletions: exactly what a query over (trees ∪ memtable) must return.
func bruteForce(vectors [][]float32, deleted map[uint64]bool, q []float32, k int) []Result {
	best := topk.New(k)
	for id, v := range vectors {
		if deleted[uint64(id)] {
			continue
		}
		best.Push(uint64(id), vecmath.DistSq(q, v))
	}
	items := best.Items()
	out := make([]Result, len(items))
	for i, it := range items {
		out[i] = Result{ID: it.ID, Dist: math.Sqrt(it.Dist)}
	}
	return out
}

func requireIdentical(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			t.Fatalf("%s rank %d: got %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// Acknowledged inserts must survive a crash before any compaction: the
// reopened index answers bit-identically to the still-open one.
func TestInsertsSurviveCrashBeforeCompaction(t *testing.T) {
	ds := data.Generate(data.Config{Name: "crash", N: 800, Dim: 32, Clusters: 4, Lo: 0, Hi: 1, Seed: 31})
	queries := ds.PerturbedQueries(8, 0.02, 32)
	dir := filepath.Join(t.TempDir(), "ix")
	ix, err := Build(dir, ds.Vectors[:600], ingestParams())
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	for _, v := range ds.Vectors[600:] {
		if _, err := ix.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Delete(10); err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(700); err != nil { // memtable-resident id
		t.Fatal(err)
	}

	want := make([][]Result, len(queries))
	for qi, q := range queries {
		res, _, err := ix.Query(context.Background(), q, 10, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[qi] = res
	}

	// Crash: copy the live directory, never Close, reopen the copy.
	re, err := Open(crashCopy(t, dir), OpenOptions{MemtableMaxVectors: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Count() != 800 {
		t.Fatalf("recovered count = %d, want 800", re.Count())
	}
	if got := re.IngestStats().Replayed; got != 202 {
		t.Fatalf("replayed = %d, want 202 (200 inserts + 2 deletes)", got)
	}
	if re.DeletedCount() != 2 {
		t.Fatalf("recovered deleted count = %d, want 2", re.DeletedCount())
	}
	for qi, q := range queries {
		res, _, err := re.Query(context.Background(), q, 10, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, fmt.Sprintf("query %d after crash recovery", qi), res, want[qi])
	}
}

// A torn final WAL record — the crash landed mid-write — must truncate
// cleanly: every record before the tear replays, the torn one is gone,
// and the log accepts new appends.
func TestTornFinalWALRecordTruncates(t *testing.T) {
	ds := data.Generate(data.Config{Name: "torn", N: 300, Dim: 16, Lo: 0, Hi: 1, Seed: 41})
	dir := filepath.Join(t.TempDir(), "ix")
	p := Params{Tau: 2, Omega: 8, M: 3, Alpha: 64, Gamma: 16, Seed: 42, MemtableMaxVectors: 1 << 20}
	ix, err := Build(dir, ds.Vectors[:290], p)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ds.Vectors[290:] {
		if _, err := ix.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record: chop 5 bytes off the log tail.
	walPath := filepath.Join(dir, "wal.log")
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, OpenOptions{MemtableMaxVectors: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Count() != 299 {
		t.Fatalf("count after torn tail = %d, want 299 (id 299's record was torn)", re.Count())
	}
	if got := re.IngestStats().Replayed; got != 9 {
		t.Fatalf("replayed = %d, want 9", got)
	}
	// The torn insert's id is reassigned — exactly the unacknowledged-
	// write-reuse semantics — and the index keeps working.
	id, err := re.Insert(ds.Vectors[299])
	if err != nil {
		t.Fatal(err)
	}
	if id != 299 {
		t.Fatalf("reassigned id = %d, want 299", id)
	}
	res, _, err := re.Query(context.Background(), ds.Vectors[299], 1, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != 299 || res[0].Dist > 1e-6 {
		t.Fatalf("post-recovery insert not queryable: %+v", res)
	}
}

// With exhaustive filter settings a query over a non-empty memtable must
// equal brute force over (trees ∪ memtable) minus deletions — the
// tentpole's visibility contract.
func TestMemtableQueryEqualsBruteForce(t *testing.T) {
	ds := data.Generate(data.Config{Name: "vis", N: 600, Dim: 24, Clusters: 3, Lo: 0, Hi: 1, Seed: 51})
	queries := ds.PerturbedQueries(10, 0.05, 52)
	dir := filepath.Join(t.TempDir(), "ix")
	p := Params{Tau: 2, Omega: 8, M: 3, Seed: 53, Alpha: 500, Beta: 500, Gamma: 500,
		MemtableMaxVectors: 1 << 20}
	ix, err := Build(dir, ds.Vectors[:500], p)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for _, v := range ds.Vectors[500:] {
		if _, err := ix.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	deleted := map[uint64]bool{33: true, 550: true}
	for id := range deleted {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if ix.IngestStats().MemtableVectors != 100 {
		t.Fatalf("memtable = %d, want 100", ix.IngestStats().MemtableVectors)
	}
	for qi, q := range queries {
		res, st, err := ix.Query(context.Background(), q, 10, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// 99, not 100: the deleted memtable-resident id 550 is skipped
		// before the distance computation and never counted.
		if st.MemtableScanned != 99 {
			t.Fatalf("query %d scanned %d memtable vectors, want 99", qi, st.MemtableScanned)
		}
		requireIdentical(t, fmt.Sprintf("query %d vs brute force", qi),
			res, bruteForce(ds.Vectors, deleted, q, 10))
	}
}

// Insert-then-compact must answer like a one-shot build over the same
// vectors: both are exact under exhaustive settings, so their results
// are bit-identical.
func TestInsertThenCompactEqualsOneShotBuild(t *testing.T) {
	ds := data.Generate(data.Config{Name: "cmp", N: 500, Dim: 16, Clusters: 4, Lo: 0, Hi: 1, Seed: 61})
	queries := ds.PerturbedQueries(10, 0.05, 62)
	p := Params{Tau: 2, Omega: 8, M: 3, Seed: 63, Alpha: 500, Beta: 500, Gamma: 500,
		MemtableMaxVectors: 1 << 20}

	inc, err := Build(filepath.Join(t.TempDir(), "inc"), ds.Vectors[:400], p)
	if err != nil {
		t.Fatal(err)
	}
	defer inc.Close()
	for _, v := range ds.Vectors[400:] {
		if _, err := inc.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := inc.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := inc.IngestStats()
	if st.MemtableVectors != 0 || st.Compactions != 1 || st.LastCompactionVectors != 100 {
		t.Fatalf("post-compaction stats = %+v", st)
	}

	oneShot, err := Build(filepath.Join(t.TempDir(), "one"), ds.Vectors, p)
	if err != nil {
		t.Fatal(err)
	}
	defer oneShot.Close()

	for qi, q := range queries {
		a, sa, err := inc.Query(context.Background(), q, 10, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if sa.MemtableScanned != 0 {
			t.Fatalf("query %d still scanning the memtable after compaction", qi)
		}
		b, _, err := oneShot.Query(context.Background(), q, 10, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, fmt.Sprintf("query %d incremental vs one-shot", qi), a, b)
	}
}

// Compacting twice (second time with an empty memtable) and crashing
// after a compaction must both be harmless.
func TestCompactIdempotentAndDurable(t *testing.T) {
	ds := data.Generate(data.Config{Name: "idem", N: 400, Dim: 16, Lo: 0, Hi: 1, Seed: 81})
	dir := filepath.Join(t.TempDir(), "ix")
	p := Params{Tau: 2, Omega: 8, M: 3, Alpha: 64, Gamma: 16, Seed: 82, MemtableMaxVectors: 1 << 20}
	ix, err := Build(dir, ds.Vectors[:350], p)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for _, v := range ds.Vectors[350:] {
		if _, err := ix.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := ix.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := ix.IngestStats().Compactions; got != 1 {
		t.Fatalf("empty compaction must be a no-op; compactions = %d, want 1", got)
	}
	q := ds.Vectors[380]
	want, _, err := ix.Query(context.Background(), q, 5, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Crash right after the compaction: the rewritten WAL is empty, the
	// new tree generation is committed, nothing replays.
	re, err := Open(crashCopy(t, dir), OpenOptions{MemtableMaxVectors: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.IngestStats().Replayed; got != 0 {
		t.Fatalf("replayed = %d after a clean compaction, want 0", got)
	}
	if re.Count() != 400 {
		t.Fatalf("count = %d, want 400", re.Count())
	}
	got, _, err := re.Query(context.Background(), q, 5, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "post-compaction crash recovery", got, want)
}

// Stale next-generation tree files from a compaction that died before
// its meta.json commit must be ignored and cleaned up: recovery comes
// from the old generation plus the WAL.
func TestCrashMidCompactionRecoversFromWAL(t *testing.T) {
	ds := data.Generate(data.Config{Name: "mid", N: 300, Dim: 16, Lo: 0, Hi: 1, Seed: 91})
	dir := filepath.Join(t.TempDir(), "ix")
	p := Params{Tau: 2, Omega: 8, M: 3, Alpha: 64, Gamma: 16, Seed: 92, MemtableMaxVectors: 1 << 20}
	ix, err := Build(dir, ds.Vectors[:280], p)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for _, v := range ds.Vectors[280:] {
		if _, err := ix.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	crashed := crashCopy(t, dir)
	// Fake the uncommitted half of a compaction: next-gen tree files
	// exist (garbage contents — they must never be opened), meta.json
	// still names generation 0.
	for tr := 0; tr < p.Tau; tr++ {
		name := filepath.Join(crashed, fmt.Sprintf("tree_%02d.g1.pg", tr))
		if err := os.WriteFile(name, []byte("partial compaction debris"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	re, err := Open(crashed, OpenOptions{MemtableMaxVectors: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Count() != 300 {
		t.Fatalf("count = %d, want 300", re.Count())
	}
	if re.IngestStats().Replayed != 20 {
		t.Fatalf("replayed = %d, want 20", re.IngestStats().Replayed)
	}
	for tr := 0; tr < p.Tau; tr++ {
		name := filepath.Join(crashed, fmt.Sprintf("tree_%02d.g1.pg", tr))
		if _, err := os.Stat(name); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("stale generation file %s not removed", name)
		}
	}
	// The recovered index must still compact cleanly into generation 1.
	if err := re.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, _, err := re.Query(context.Background(), ds.Vectors[290], 1, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != 290 || res[0].Dist > 1e-6 {
		t.Fatalf("replayed vector lost after re-compaction: %+v", res)
	}
}

// Compaction reclaims delete marks: the dropped entries never come back,
// and Undelete of a reclaimed id reports ErrPurged rather than silently
// resurrecting a vector whose tree entries are gone.
func TestCompactionPurgesDeletes(t *testing.T) {
	ds := data.Generate(data.Config{Name: "purge", N: 300, Dim: 16, Lo: 0, Hi: 1, Seed: 101})
	dir := filepath.Join(t.TempDir(), "ix")
	p := Params{Tau: 2, Omega: 8, M: 3, Alpha: 300, Beta: 300, Gamma: 300, Seed: 102,
		MemtableMaxVectors: 1 << 20}
	ix, err := Build(dir, ds.Vectors[:280], p)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for _, v := range ds.Vectors[280:] {
		if _, err := ix.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Delete(50); err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(290); err != nil {
		t.Fatal(err)
	}
	if err := ix.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Both deletions are now purged: count unchanged (ids stay
	// allocated), DeletedCount still reports them, Undelete refuses.
	if ix.Count() != 300 {
		t.Fatalf("count = %d, want 300", ix.Count())
	}
	if ix.DeletedCount() != 2 {
		t.Fatalf("deleted count = %d, want 2", ix.DeletedCount())
	}
	for _, id := range []uint64{50, 290} {
		if err := ix.Undelete(id); !errors.Is(err, ErrPurged) {
			t.Fatalf("Undelete(%d) = %v, want ErrPurged", id, err)
		}
	}
	deleted := map[uint64]bool{50: true, 290: true}
	for qi, q := range ds.PerturbedQueries(5, 0.05, 103) {
		res, _, err := ix.Query(context.Background(), q, 10, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, fmt.Sprintf("query %d after purge", qi),
			res, bruteForce(ds.Vectors, deleted, q, 10))
	}

	// Purged-ness survives reopen.
	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(crashCopy(t, dir), OpenOptions{MemtableMaxVectors: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.Undelete(50); !errors.Is(err, ErrPurged) {
		t.Fatalf("Undelete(50) after reopen = %v, want ErrPurged", err)
	}
}

// The background compactor fires on its own once the memtable crosses
// the threshold: no explicit Compact call, the WAL shrinks back, and
// every insert stays queryable throughout.
func TestBackgroundCompactionTriggers(t *testing.T) {
	ds := data.Generate(data.Config{Name: "bg", N: 400, Dim: 16, Lo: 0, Hi: 1, Seed: 111})
	dir := filepath.Join(t.TempDir(), "ix")
	p := Params{Tau: 2, Omega: 8, M: 3, Alpha: 64, Gamma: 16, Seed: 112,
		MemtableMaxVectors: 32}
	ix, err := Build(dir, ds.Vectors[:200], p)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for _, v := range ds.Vectors[200:] {
		if _, err := ix.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := ix.IngestStats()
		if st.Compactions >= 1 && st.MemtableVectors <= 32 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background compactor never fired: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	res, _, err := ix.Query(context.Background(), ds.Vectors[399], 1, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != 399 || res[0].Dist > 1e-6 {
		t.Fatalf("last insert lost across background compaction: %+v", res)
	}
}

// Closing the index mid-stream and reopening without ever compacting
// must keep replaying the same WAL tail — replay is idempotent across
// arbitrarily many open/close cycles.
func TestRepeatedReopenReplaysIdempotently(t *testing.T) {
	ds := data.Generate(data.Config{Name: "re", N: 260, Dim: 16, Lo: 0, Hi: 1, Seed: 131})
	dir := filepath.Join(t.TempDir(), "ix")
	p := Params{Tau: 2, Omega: 8, M: 3, Alpha: 64, Gamma: 16, Seed: 132, MemtableMaxVectors: 1 << 20}
	ix, err := Build(dir, ds.Vectors[:250], p)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ds.Vectors[250:] {
		if _, err := ix.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 3; cycle++ {
		re, err := Open(dir, OpenOptions{MemtableMaxVectors: 1 << 20})
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if re.Count() != 260 {
			t.Fatalf("cycle %d: count = %d, want 260", cycle, re.Count())
		}
		if re.IngestStats().Replayed != 10 {
			t.Fatalf("cycle %d: replayed = %d, want 10", cycle, re.IngestStats().Replayed)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
