package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/hd-index/hdindex/internal/data"
	"github.com/hd-index/hdindex/internal/iofault"
	"github.com/hd-index/hdindex/internal/leakcheck"
	"github.com/hd-index/hdindex/internal/pager"
)

// faultIndex builds a small index with the first seed vectors, closes
// it, and returns the directory plus the dataset — the reopen happens
// in the test, after the fault rules are armed, so the WAL and pager
// files get wrapped.
func faultIndex(t *testing.T, seedN int) (string, *data.Dataset) {
	t.Helper()
	ds := data.Generate(data.Config{N: seedN + 100, Dim: 16, Clusters: 4, Lo: 0, Hi: 1, Seed: 81})
	dir := filepath.Join(t.TempDir(), "ix")
	ix, err := Build(dir, ds.Vectors[:seedN], ingestParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, ds
}

// insertUntilFailure appends vectors one by one until the WAL fault
// fires, returning the ids acknowledged before the failure and the
// error that stopped the run.
func insertUntilFailure(t *testing.T, ix *Index, vecs [][]float32) ([]uint64, error) {
	t.Helper()
	var acked []uint64
	for _, v := range vecs {
		id, err := ix.Insert(v)
		if err != nil {
			return acked, err
		}
		acked = append(acked, id)
	}
	return acked, nil
}

// assertServes fails unless every (id, vec) pair answers a k=1 self
// query — the acked-writes-survive check.
func assertServes(t *testing.T, ix *Index, ids []uint64, vecs [][]float32) {
	t.Helper()
	for i, id := range ids {
		res, _, err := ix.Query(context.Background(), vecs[i], 1, SearchOptions{})
		if err != nil {
			t.Fatalf("search for acked insert %d: %v", id, err)
		}
		if len(res) != 1 || res[0].ID != id || res[0].Dist > 1e-5 {
			t.Fatalf("acked insert %d lost: got %+v", id, res)
		}
	}
}

// TestFaultWALENOSPCWrite drives inserts into a WAL with a byte budget:
// the append that crosses it gets a torn ENOSPC write. The failing
// insert must be rejected with ErrWALUnavailable (carrying ENOSPC), the
// index must flip read-only while still answering queries, and a reopen
// must serve every acknowledged insert.
func TestFaultWALENOSPCWrite(t *testing.T) {
	dir, ds := faultIndex(t, 200)

	restore := iofault.SetGlobal(iofault.NewInjector(iofault.Rule{
		PathGlob: "wal.log", Op: iofault.OpWrite, AfterBytes: 1024,
	}))
	defer restore()

	ix, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	acked, failErr := insertUntilFailure(t, ix, ds.Vectors[200:])
	if failErr == nil {
		t.Fatal("ENOSPC never fired: byte budget too large for the insert volume")
	}
	if !errors.Is(failErr, ErrWALUnavailable) || !errors.Is(failErr, syscall.ENOSPC) {
		t.Fatalf("failing insert: got %v, want ErrWALUnavailable wrapping ENOSPC", failErr)
	}
	if !ix.WALFailed() {
		t.Fatal("index must report WALFailed after the poisoned append")
	}
	if ist := ix.IngestStats(); !ist.WALFailed {
		t.Fatal("IngestStats must carry wal_failed")
	}

	// Read-only from here: writes reject, reads keep serving.
	if _, err := ix.Insert(ds.Vectors[200]); !errors.Is(err, ErrWALUnavailable) {
		t.Fatalf("insert after poison: got %v, want ErrWALUnavailable", err)
	}
	if err := ix.Delete(0); !errors.Is(err, ErrWALUnavailable) {
		t.Fatalf("delete after poison: got %v, want ErrWALUnavailable", err)
	}
	if got := ix.Count(); got != uint64(200+len(acked)) {
		t.Fatalf("Count = %d, want %d (failed insert must not count)", got, 200+len(acked))
	}
	assertServes(t, ix, acked, ds.Vectors[200:])

	// Recovery: clear the fault, reopen, and every acked write is back.
	// Close flushes through the poisoned WAL, so it may report the
	// failure; what matters is that it returns (files closed, no panic).
	_ = ix.Close()
	// A closed index holds no log: like its WAL byte and record counts,
	// its read-only flag reads zero.
	if ist := ix.IngestStats(); ist.WALFailed || ix.WALFailed() || ist.WALBytes != 0 || ist.WALRecords != 0 {
		t.Fatalf("closed index: WALFailed %v/%v, %d WAL bytes, %d records; want false and zeros",
			ist.WALFailed, ix.WALFailed(), ist.WALBytes, ist.WALRecords)
	}
	restore()
	re, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertServes(t, re, acked, ds.Vectors[200:])
}

// TestFaultWALSyncFailureRollsBackAck injects the failure after the
// in-cache append, at the group-commit fsync. The insert was already in
// the memtable when the fsync failed, so this exercises the rollback:
// the unacknowledged suffix must vanish from reads, and everything
// acknowledged earlier must survive a reopen.
func TestFaultWALSyncFailureRollsBackAck(t *testing.T) {
	dir, ds := faultIndex(t, 200)

	// Open performs no fsync of its own, so "fail the 6th sync" means
	// five inserts group-commit and the sixth fails its fsync.
	restore := iofault.SetGlobal(iofault.NewInjector(iofault.Rule{
		PathGlob: "wal.log", Op: iofault.OpSync, AfterCalls: 5,
	}))
	defer restore()

	ix, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	acked, failErr := insertUntilFailure(t, ix, ds.Vectors[200:])
	if failErr == nil {
		t.Fatal("sync fault never fired")
	}
	if !errors.Is(failErr, ErrWALUnavailable) || !errors.Is(failErr, syscall.EIO) {
		t.Fatalf("failing insert: got %v, want ErrWALUnavailable wrapping EIO", failErr)
	}
	if len(acked) != 5 {
		t.Fatalf("acked %d inserts before the poisoned fsync, want 5", len(acked))
	}
	// The failed insert reached the memtable before its fsync; the
	// rollback must have removed exactly that suffix.
	if got := ix.Count(); got != 205 {
		t.Fatalf("Count = %d, want 205 (non-durable suffix rolled back)", got)
	}
	// The rolled-back vector must not serve.
	failedVec := ds.Vectors[200+len(acked)]
	res, _, err := ix.Query(context.Background(), failedVec, 1, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 1 && res[0].Dist < 1e-6 {
		t.Fatalf("rolled-back insert still serving as id %d", res[0].ID)
	}
	assertServes(t, ix, acked, ds.Vectors[200:])

	ix.Close()
	restore()
	re, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertServes(t, re, acked, ds.Vectors[200:])
}

// TestFaultDeleteUndoBesideQueries runs the one deleteSet writer that
// holds no index lock — the undo of a Delete whose group commit failed —
// beside searches reading the marks once per candidate, including through
// the lock-free "nothing was ever deleted" path. Under -race any unordered
// access fails the test; without it the assertions still pin the undo: the
// failed Delete leaves no mark, the object serves, the index is read-only.
func TestFaultDeleteUndoBesideQueries(t *testing.T) {
	dir, ds := faultIndex(t, 200)
	// Two fsyncs pass (a Delete and its Undelete), the third fails; every
	// one is slow, so searches run inside each group-commit wait.
	restore := iofault.SetGlobal(iofault.NewInjector(
		iofault.Rule{PathGlob: "wal.log", Op: iofault.OpSync, Latency: 5 * time.Millisecond},
		iofault.Rule{PathGlob: "wal.log", Op: iofault.OpSync, AfterCalls: 2},
	))
	defer restore()
	ix, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if ix.deleted.has(9) || ix.DeletedCount() != 0 {
		t.Fatal("a fresh index holds deletion marks")
	}

	const victim = 9
	exhaustive := SearchOptions{Alpha: 200, Gamma: 200}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Either answer is right while a Delete is in flight; the
				// search must simply not race with it.
				if _, _, err := ix.Query(context.Background(), ds.Vectors[victim], 3, exhaustive); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	if err := ix.Delete(7); err != nil {
		t.Fatal(err)
	}
	if err := ix.Undelete(7); err != nil {
		t.Fatal(err)
	}
	err = ix.Delete(victim)
	close(stop)
	wg.Wait()
	select {
	case qerr := <-errs:
		t.Fatal(qerr)
	default:
	}
	if !errors.Is(err, ErrWALUnavailable) {
		t.Fatalf("Delete over a failing fsync: %v, want ErrWALUnavailable", err)
	}
	if ix.DeletedCount() != 0 {
		t.Fatalf("the unacknowledged Delete left %d marks", ix.DeletedCount())
	}
	res, _, err := ix.Query(context.Background(), ds.Vectors[victim], 1, exhaustive)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != victim {
		t.Fatalf("object %d does not serve after its Delete was rolled back: %+v", victim, res)
	}
	if err := ix.Delete(3); !errors.Is(err, ErrWALUnavailable) {
		t.Fatalf("a write after the WAL failure: %v, want ErrWALUnavailable", err)
	}
}

// TestCompactRetryDelay holds the breaker's backoff to its schedule
// over 0–25 consecutive failures, past the point where the shift stops
// growing: none after no failure, else 250 ms doubled per further
// failure up to 30 s; a success closes the breaker again.
func TestCompactRetryDelay(t *testing.T) {
	want := time.Duration(0)
	for n := range 26 {
		switch {
		case n == 1:
			want = 250 * time.Millisecond
		case n > 1:
			want = min(2*want, 30*time.Second)
		}
		ix := &Index{}
		for range n {
			ix.noteCompactFailure(errors.New("eio"))
		}
		if got := ix.compactRetryDelay(); got != want {
			t.Errorf("%d consecutive failures: retry delay %v, want %v", n, got, want)
		}
		ix.noteCompactOK()
		if got := ix.compactRetryDelay(); got != 0 {
			t.Errorf("%d failures then a success: retry delay %v, want 0", n, got)
		}
	}
}

// TestFaultCompactionEIOServesOldGeneration fails the new tree
// generation's writes with EIO. The compaction must fail cleanly — old
// generation serving, memtable intact, circuit breaker open — and a
// retry after the disk recovers must succeed and close the breaker.
func TestFaultCompactionEIOServesOldGeneration(t *testing.T) {
	dir, ds := faultIndex(t, 200)
	ix, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	acked, failErr := insertUntilFailure(t, ix, ds.Vectors[200:250])
	if failErr != nil {
		t.Fatal(failErr)
	}

	// Arm after open: only the new generation files (created during
	// Compact) match, the serving generation is untouched.
	restore := iofault.SetGlobal(iofault.NewInjector(iofault.Rule{
		PathGlob: "tree_*.g*.pg", Op: iofault.OpWrite,
	}))
	defer restore()

	if err := ix.Compact(context.Background()); err == nil {
		t.Fatal("compaction with EIO on the new generation must fail")
	}
	ist := ix.IngestStats()
	if ist.CompactBreaker != "open" {
		t.Fatalf("breaker = %q, want open", ist.CompactBreaker)
	}
	if ist.CompactFailures == 0 {
		t.Fatal("CompactFailures must count the failed attempt")
	}
	if ist.LastCompactError == "" {
		t.Fatal("LastCompactError must carry the cause")
	}
	if ist.WALFailed {
		t.Fatal("a compaction failure must not poison the WAL")
	}
	if ist.MemtableVectors != len(acked) {
		t.Fatalf("memtable = %d vectors, want %d (batch must stay queued)", ist.MemtableVectors, len(acked))
	}
	// Old generation + memtable keep serving, and writes still work.
	assertServes(t, ix, acked, ds.Vectors[200:])
	id, err := ix.Insert(ds.Vectors[250])
	if err != nil {
		t.Fatalf("insert with breaker open: %v", err)
	}
	acked = append(acked, id)

	// Disk recovers: a manual Compact is the half-open probe.
	restore()
	if err := ix.Compact(context.Background()); err != nil {
		t.Fatalf("compaction after recovery: %v", err)
	}
	ist = ix.IngestStats()
	if ist.CompactBreaker != "closed" {
		t.Fatalf("breaker = %q after successful compaction, want closed", ist.CompactBreaker)
	}
	if ist.MemtableVectors != 0 {
		t.Fatalf("memtable = %d after compaction, want 0", ist.MemtableVectors)
	}
	assertServes(t, ix, acked, ds.Vectors[200:])
}

// TestFaultCompactionCommitCannotHalfApply fails the WAL rewrite — the
// first persistence step after the meta.json commit — and checks the
// commit still applied whole in memory: the batch left the memtable (it
// must not live in the store, the new trees and mem at once), no
// phantom ids answer, id allocation continues from Count, the old
// generation's files are gone. A reopen recovers the same state: the
// untruncated WAL replays onto the commit, and the purged ids are the
// commit's, so an Undelete of one is ErrPurged and its vector stays out
// of answers.
func TestFaultCompactionCommitCannotHalfApply(t *testing.T) {
	const base, batch = 400, 100
	ds := data.Generate(data.Config{N: base + batch + 1, Dim: 16, Clusters: 4, Lo: 0, Hi: 1, Seed: 91})
	dir := filepath.Join(t.TempDir(), "ix")
	p := Params{Tau: 2, Omega: 8, M: 3, Alpha: 600, Beta: 600, Gamma: 600, Seed: 92, MemtableMaxVectors: 1 << 20}
	ix, err := Build(dir, ds.Vectors[:base], p)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { ix.Close() }()
	if _, err := insertUntilFailure(t, ix, ds.Vectors[base:base+batch]); err != nil {
		t.Fatal(err)
	}
	deleted := map[uint64]bool{7: true, 450: true} // one base id, one batch id
	for id := range deleted {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}

	// The purged ids live in meta.json alone. A directory named like a
	// mark file's temp copy blocks writing one, so an index that kept
	// them in a file of their own after the commit would lose them here.
	blocker := filepath.Join(dir, deletedFile+".tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	restore := iofault.SetGlobal(iofault.NewInjector(iofault.Rule{
		PathGlob: walFile + ".tmp*", Op: iofault.OpSync, Once: true,
	}))
	err = ix.Compact(context.Background())
	restore()
	if err == nil {
		t.Fatal("Compact must report the failed WAL rewrite")
	}

	live := ds.Vectors[:base+batch]
	check := func(label string, ix *Index, count uint64) {
		t.Helper()
		if got := ix.Count(); got != count {
			t.Fatalf("%s: Count = %d, want %d", label, got, count)
		}
		for _, qi := range []int{7, 200, 449, 450, 451, 499} {
			res, _, err := ix.Query(context.Background(), ds.Vectors[qi], 5, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, fmt.Sprintf("%s: query %d", label, qi), res, bruteForce(live, deleted, ds.Vectors[qi], 5))
		}
	}
	if st := ix.IngestStats(); st.MemtableVectors != 0 || st.Compactions != 1 || st.WALFailed {
		t.Fatalf("after the failed WAL rewrite: memtable = %d, compactions = %d, WAL failed %v; want 0, 1, false",
			st.MemtableVectors, st.Compactions, st.WALFailed)
	}
	check("after failed WAL rewrite", ix, base+batch)
	if _, err := os.Stat(ix.treeGenPath(0, 0)); !os.IsNotExist(err) {
		t.Fatalf("old generation file still present (stat err %v)", err)
	}
	id, err := ix.Insert(ds.Vectors[base+batch])
	if err != nil || id != base+batch {
		t.Fatalf("next Insert = (%d, %v), want id %d", id, err, base+batch)
	}
	live = ds.Vectors

	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if ix, err = Open(dir, OpenOptions{MemtableMaxVectors: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Undelete(7); !errors.Is(err, ErrPurged) {
		t.Fatalf("after reopen: Undelete(7) = %v, want ErrPurged", err)
	}
	check("after reopen", ix, base+batch+1)
	if got := ix.DeletedCount(); got != len(deleted) {
		t.Fatalf("after reopen: DeletedCount = %d, want %d", got, len(deleted))
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	// The next compaction truncates the WAL the failed one left whole.
	if err := ix.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	check("after the next compaction", ix, base+batch+1)
	if err := ix.Undelete(7); !errors.Is(err, ErrPurged) {
		t.Fatalf("Undelete(7) = %v, want ErrPurged", err)
	}
	if _, err := ix.Check(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// exactIngestDir builds a 400-vector index whose cascade is exhaustive,
// logs 100 inserts to its WAL and closes it: Open replays them into the
// memtable, ready for one compaction.
func exactIngestDir(t *testing.T) (string, [][]float32) {
	t.Helper()
	ds := data.Generate(data.Config{N: 500, Dim: 16, Clusters: 4, Lo: 0, Hi: 1, Seed: 93})
	dir := filepath.Join(t.TempDir(), "ix")
	p := Params{Tau: 2, Omega: 8, M: 3, Alpha: 600, Beta: 600, Gamma: 600, Seed: 94, MemtableMaxVectors: 1 << 20}
	ix, err := Build(dir, ds.Vectors[:400], p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := insertUntilFailure(t, ix, ds.Vectors[400:]); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, ds.Vectors
}

// requireExact fails unless ix holds len(live) vectors and answers
// queries at some of them as a brute-force scan does.
func requireExact(t *testing.T, label string, ix *Index, live [][]float32) {
	t.Helper()
	if got := ix.Count(); got != uint64(len(live)) {
		t.Fatalf("%s: Count = %d, want %d", label, got, len(live))
	}
	for _, qi := range []int{0, 199, 399, 400, 450, 499} {
		res, _, err := ix.Query(context.Background(), live[qi], 5, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, fmt.Sprintf("%s: query %d", label, qi), res, bruteForce(live, nil, live[qi], 5))
	}
}

// TestFaultCompactionStoreWriteLeavesMeta fails the write, then the
// fsync, of the batch's records in vectors.pg — the step a compaction
// takes before its commit. Nothing may be committed: meta.json keeps its
// bytes, the old generation serves the batch from the memtable, and a
// retry commits and answers exactly.
func TestFaultCompactionStoreWriteLeavesMeta(t *testing.T) {
	for _, op := range []iofault.Op{iofault.OpWrite, iofault.OpSync} {
		t.Run(op.String(), func(t *testing.T) {
			dir, live := exactIngestDir(t)
			meta, err := os.ReadFile(filepath.Join(dir, metaFile))
			if err != nil {
				t.Fatal(err)
			}
			// Armed before Open, which wraps vectors.pg; neither Open nor a
			// query writes or syncs it, so the compaction's append fails.
			restore := iofault.SetGlobal(iofault.NewInjector(iofault.Rule{PathGlob: "vectors.pg", Op: op, Once: true}))
			ix, err := Open(dir, OpenOptions{MemtableMaxVectors: 1 << 20})
			restore()
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()

			if err := ix.Compact(context.Background()); !errors.Is(err, syscall.EIO) {
				t.Fatalf("Compact = %v, want the %s's EIO", err, op)
			}
			if got, err := os.ReadFile(filepath.Join(dir, metaFile)); err != nil || !bytes.Equal(got, meta) {
				t.Fatalf("meta.json changed under a failed %s (%v)", op, err)
			}
			if st := ix.IngestStats(); ix.gen != 0 || st.MemtableVectors != 100 || st.Compactions != 0 {
				t.Fatalf("after the failed %s: generation %d, memtable %d, compactions %d; want 0, 100, 0", op, ix.gen, st.MemtableVectors, st.Compactions)
			}
			requireExact(t, "after the failed "+op.String(), ix, live)

			if err := ix.Compact(context.Background()); err != nil {
				t.Fatalf("retry: %v", err)
			}
			if st := ix.IngestStats(); ix.gen != 1 || st.MemtableVectors != 0 {
				t.Fatalf("after the retry: generation %d, memtable %d; want 1, 0", ix.gen, st.MemtableVectors)
			}
			requireExact(t, "after the retry", ix, live)
			if _, err := ix.Check(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFaultCompactionCrashAfterStoreWrite opens the directory a crash
// leaves between a compaction's append to vectors.pg and its meta.json
// commit: records past meta.json's count, here made garbage. Open takes
// meta.json's count, the WAL replays the batch, the index answers as if
// nothing had happened, and the next compaction writes over the garbage.
func TestFaultCompactionCrashAfterStoreWrite(t *testing.T) {
	dir, live := exactIngestDir(t)
	vecPath := filepath.Join(dir, "vectors.pg")
	st, err := os.Stat(vecPath)
	if err != nil {
		t.Fatal(err)
	}
	committedSize := st.Size()
	ix, err := Open(dir, OpenOptions{MemtableMaxVectors: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { ix.Close() }()
	// A directory where the temp meta.json goes fails the commit after
	// the append; the files as they are then are the crash's.
	blocker := filepath.Join(dir, metaFile+".tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := ix.Compact(context.Background()); err == nil {
		t.Fatal("Compact committed past a blocked meta.json")
	}
	crashed := filepath.Join(t.TempDir(), "crashed")
	if err := os.Mkdir(crashed, 0o755); err != nil {
		t.Fatal(err)
	}
	copyDir(t, dir, crashed)
	vecPath = filepath.Join(crashed, "vectors.pg")
	buf, err := os.ReadFile(vecPath)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(buf)) <= committedSize {
		t.Fatalf("vectors.pg is %d bytes after the append, %d before", len(buf), committedSize)
	}
	// Whole pages past the committed ones hold nothing but batch records.
	for i := committedSize; i < int64(len(buf)); i++ {
		buf[i] = 0xFF
	}
	if err := os.WriteFile(vecPath, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	ix.Close()
	if ix, err = Open(crashed, OpenOptions{MemtableMaxVectors: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	if got := ix.vectors.Count(); got != 400 {
		t.Fatalf("opened with %d vectors in the store, meta.json commits 400", got)
	}
	requireExact(t, "after the crash", ix, live)
	if _, err := ix.Check(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := ix.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(vecPath); err != nil || st.Size() != int64(len(buf)) {
		t.Fatalf("vectors.pg after the next compaction: %v (%v), want %d bytes, written over", st.Size(), err, len(buf))
	}
	requireExact(t, "after the next compaction", ix, live)
	if _, err := ix.Check(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if ix, err = Open(crashed, OpenOptions{}); err != nil {
		t.Fatal(err)
	}
	requireExact(t, "after a reopen", ix, live)
}

// TestFaultPagerReadEIOTypedError turns reads of the tree files into
// EIO mid-serving: queries must fail with the typed pager.ErrIO — never
// a panic — and classify as io_error at the HTTP layer.
func TestFaultPagerReadEIOTypedError(t *testing.T) {
	dir, ds := faultIndex(t, 200)

	// The budget lets Open's header/metadata reads through; with the
	// cache disabled every query page read then hits the injector until
	// one trips.
	restore := iofault.SetGlobal(iofault.NewInjector(iofault.Rule{
		PathGlob: "tree_*.pg", Op: iofault.OpRead, AfterCalls: 400,
	}))
	defer restore()

	ix, err := Open(dir, OpenOptions{DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	var searchErr error
	for i := 0; i < 2000 && searchErr == nil; i++ {
		_, _, searchErr = ix.Query(context.Background(), ds.Vectors[i%200], 5, SearchOptions{})
	}
	if searchErr == nil {
		t.Fatal("read fault never fired: raise the query count")
	}
	if !errors.Is(searchErr, pager.ErrIO) {
		t.Fatalf("search error = %v, want pager.ErrIO", searchErr)
	}
	if !errors.Is(searchErr, syscall.EIO) {
		t.Fatalf("search error = %v, want wrapped EIO", searchErr)
	}
}

// TestFaultBuildSyncFailureLeavesNoMeta fails the fsync of one file
// Build writes. Every file must be durable before meta.json, the commit
// point, names it, so the build fails with the fsync's error and leaves
// no meta.json for Open to trust.
func TestFaultBuildSyncFailureLeavesNoMeta(t *testing.T) {
	ds := data.Generate(data.Config{N: 300, Dim: 16, Clusters: 4, Lo: 0, Hi: 1, Seed: 83})
	for _, file := range []string{"vectors.pg", "tree_00.pg"} {
		t.Run(file, func(t *testing.T) {
			restore := iofault.SetGlobal(iofault.NewInjector(iofault.Rule{PathGlob: file, Op: iofault.OpSync}))
			defer restore()
			dir := filepath.Join(t.TempDir(), "ix")
			ix, err := Build(dir, ds.Vectors, ingestParams())
			if err == nil {
				ix.Close()
				t.Fatalf("Build succeeded through a failed fsync of %s", file)
			}
			if !errors.Is(err, syscall.EIO) {
				t.Fatalf("Build error = %v, want the fsync's EIO", err)
			}
			if _, err := os.Stat(filepath.Join(dir, metaFile)); !os.IsNotExist(err) {
				t.Fatalf("meta.json after a failed build: stat err = %v", err)
			}
		})
	}
}

// TestChaosCompactorStopNoLeak exercises the background compactor's
// whole lifecycle — threshold-triggered compactions, then Close — and
// asserts every goroutine is reaped.
func TestChaosCompactorStopNoLeak(t *testing.T) {
	defer leakcheck.Check(t)()
	ds := data.Generate(data.Config{N: 300, Dim: 16, Clusters: 4, Lo: 0, Hi: 1, Seed: 82})
	dir := filepath.Join(t.TempDir(), "ix")
	p := ingestParams()
	ix, err := Build(dir, ds.Vectors[:200], p)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	ix, err = Open(dir, OpenOptions{MemtableMaxVectors: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ds.Vectors[200:280] {
		if _, err := ix.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosCompactorBreakerStopNoLeak closes the index while the
// compaction circuit breaker is open and a backoff retry is pending —
// the shutdown path must not strand the breaker's retry timer
// goroutine.
func TestChaosCompactorBreakerStopNoLeak(t *testing.T) {
	defer leakcheck.Check(t)()
	dir, ds := faultIndex(t, 200)
	ix, err := Open(dir, OpenOptions{MemtableMaxVectors: 16})
	if err != nil {
		t.Fatal(err)
	}
	restore := iofault.SetGlobal(iofault.NewInjector(iofault.Rule{
		PathGlob: "tree_*.g*.pg", Op: iofault.OpWrite,
	}))
	defer restore()
	// Cross the threshold so the background compactor attempts, fails,
	// and opens the breaker with a retry pending.
	for _, v := range ds.Vectors[200:240] {
		if _, err := ix.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	_ = ix.Compact(context.Background()) // at least one failed attempt, deterministically
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosCancelledBuildNoLeak cancels a build mid-flight and asserts
// the tree-builder fan-out exits with the context.
func TestChaosCancelledBuildNoLeak(t *testing.T) {
	defer leakcheck.Check(t)()
	ds := data.Generate(data.Config{N: 3000, Dim: 32, Clusters: 6, Lo: 0, Hi: 1, Seed: 83})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dir := filepath.Join(t.TempDir(), "ix")
	if _, err := BuildContext(ctx, dir, ds.Vectors, ingestParams()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build: got %v, want context.Canceled", err)
	}
}

// TestFaultRebuildLeavesMeta fails the writes of the trees Open rebuilds
// for the parent-layout fixture, whose trees are of an older layout: Open
// returns the EIO, removes what it wrote, and leaves meta.json's bytes,
// so the directory still commits the old generation. A crash inside the
// rebuild would leave generation-2 files behind — planted here as copies
// of the old trees — and the next Open, without the fault, writes that
// generation anew over them, drops the old one (Check finds no stale
// tree file), and answers as answers.json records.
func TestFaultRebuildLeavesMeta(t *testing.T) {
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
	meta, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		t.Fatal(err)
	}
	opts := OpenOptions{MemtableMaxVectors: 1 << 20}

	restore := iofault.SetGlobal(iofault.NewInjector(iofault.Rule{
		PathGlob: "tree_*.g*.pg", Op: iofault.OpWrite,
	}))
	_, err = Open(dir, opts)
	restore()
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("Open with the rebuilt trees' writes failing: %v, want EIO", err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, metaFile)); err != nil || !bytes.Equal(got, meta) {
		t.Fatalf("the failed rebuild changed meta.json (%v)", err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "tree_*.g2.pg")); len(left) != 0 {
		t.Fatalf("the failed rebuild left %v", left)
	}
	for tr := range 2 {
		old, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("tree_%02d.g1.pg", tr)))
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, fmt.Sprintf("tree_%02d.g2.pg", tr)), old, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	ix, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open after the fault: %v", err)
	}
	defer ix.Close()
	if ix.gen != 2 || ix.Count() != want.Count || ix.DeletedCount() != want.Deleted {
		t.Fatalf("opened generation %d, %d vectors, %d deleted; want 2, %d and %d", ix.gen, ix.Count(), ix.DeletedCount(), want.Count, want.Deleted)
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
	if _, err := ix.Check(context.Background()); err != nil {
		t.Fatal(err)
	}
}
