package shard_test

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/hd-index/hdindex"
	"github.com/hd-index/hdindex/internal/data"
	"github.com/hd-index/hdindex/internal/iofault"
	"github.com/hd-index/hdindex/internal/shard"
)

// crashCopyTree snapshots the sharded layout while its owner is still
// open — the SIGKILL simulation: recovery sees exactly what reached the
// filesystem, nothing the process only held in memory.
func crashCopyTree(t *testing.T, dir string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "crashed")
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		src, err := os.Open(path)
		if err != nil {
			return err
		}
		defer src.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, src); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// Acknowledged inserts and deletes on a sharded layout must survive a
// crash with no Close and no Flush: each shard's WAL replays its stripe.
func TestShardedInsertsSurviveCrash(t *testing.T) {
	ds := data.Generate(data.Config{Name: "scrash", N: 900, Dim: 32, Clusters: 4, Lo: 0, Hi: 1, Seed: 141})
	queries := ds.PerturbedQueries(8, 0.02, 142)
	opts := hdindex.Options{Tau: 4, Omega: 8, M: 4, Alpha: 256, Gamma: 64, Seed: 143,
		MemtableMaxVectors: 1 << 20, Shards: 3}
	s, dir := build(t, ds.Vectors[:800], opts)
	defer s.Close()
	for i, v := range ds.Vectors[800:] {
		id, err := s.Insert(v)
		if err != nil {
			t.Fatal(err)
		}
		if id != uint64(800+i) {
			t.Fatalf("insert %d assigned id %d", i, id)
		}
	}
	if err := s.Delete(5); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(850); err != nil {
		t.Fatal(err)
	}
	want := make([][]hdindex.Result, len(queries))
	for qi, q := range queries {
		resp, err := s.Query(ctx, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		want[qi] = resp.Results
	}

	re, err := hdindex.Open(crashCopyTree(t, dir), hdindex.Options{MemtableMaxVectors: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Count() != 900 {
		t.Fatalf("recovered count = %d, want 900", re.Count())
	}
	if re.DeletedCount() != 2 {
		t.Fatalf("recovered deleted = %d, want 2", re.DeletedCount())
	}
	if got := re.IngestStats().Replayed; got != 102 {
		t.Fatalf("replayed = %d, want 102", got)
	}
	for qi, q := range queries {
		resp, err := re.Query(ctx, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResults(t, fmt.Sprintf("query %d after sharded crash", qi), resp.Results, want[qi])
	}
}

// Compact sweeps every shard's memtable into its trees; results are
// unchanged and the layout reports zero memtable residue.
func TestShardedCompact(t *testing.T) {
	ds := data.Generate(data.Config{Name: "scomp", N: 700, Dim: 32, Clusters: 4, Lo: 0, Hi: 1, Seed: 151})
	queries := ds.PerturbedQueries(8, 0.02, 152)
	s, _ := build(t, ds.Vectors[:600], hdindex.Options{Tau: 4, Omega: 8, M: 4, Alpha: 256, Gamma: 64, Seed: 153,
		MemtableMaxVectors: 1 << 20, Shards: 3})
	defer s.Close()
	for _, v := range ds.Vectors[600:] {
		if _, err := s.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.IngestStats().MemtableVectors; got != 100 {
		t.Fatalf("memtable = %d, want 100", got)
	}
	want := make([][]hdindex.Result, len(queries))
	for qi, q := range queries {
		resp, err := s.Query(ctx, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		want[qi] = resp.Results
	}
	if err := s.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	st := s.IngestStats()
	if st.MemtableVectors != 0 {
		t.Fatalf("memtable after Compact = %d, want 0", st.MemtableVectors)
	}
	if st.Compactions != 3 {
		t.Fatalf("compactions = %d, want 3 (one per shard)", st.Compactions)
	}
	for qi, q := range queries {
		resp, err := s.Query(ctx, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResults(t, fmt.Sprintf("query %d after sharded compact", qi), resp.Results, want[qi])
	}
}

// A torn final WAL record on one shard loses only that shard's last
// unacknowledged write; the routing layer then reassigns the lost id
// first, self-healing the stripe.
func TestShardedTornWALRecord(t *testing.T) {
	ds := data.Generate(data.Config{Name: "storn", N: 310, Dim: 16, Lo: 0, Hi: 1, Seed: 161})
	opts := hdindex.Options{Tau: 2, Omega: 8, M: 3, Alpha: 64, Gamma: 16, Seed: 162,
		MemtableMaxVectors: 1 << 20, Shards: 2}
	s, dir := build(t, ds.Vectors[:300], opts)
	// Ids 300..309 round-robin: even ids to shard 0, odd to shard 1.
	for _, v := range ds.Vectors[300:] {
		if _, err := s.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record of shard 1's WAL — id 309's insert.
	walPath := filepath.Join(shard.Dir(dir, 1), "wal.log")
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	re, err := hdindex.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Count() != 309 {
		t.Fatalf("count after torn shard WAL = %d, want 309", re.Count())
	}
	// The next insert must refill the torn-away id 309.
	id, err := re.Insert(ds.Vectors[309])
	if err != nil {
		t.Fatal(err)
	}
	if id != 309 {
		t.Fatalf("reassigned id = %d, want 309", id)
	}
	resp, err := re.Query(ctx, ds.Vectors[309], 1)
	if err != nil {
		t.Fatal(err)
	}
	if res := resp.Results; len(res) != 1 || res[0].ID != 309 || res[0].Dist > 1e-6 {
		t.Fatalf("refilled insert not queryable: %+v", res)
	}
}

// TestBareLayoutInsertsGroupCommit pins the one-shard write path:
// concurrent writers must reach core.Insert unserialised and share
// fsyncs. An outer lock held across the durable wait would cost exactly
// one fsync per insert.
func TestBareLayoutInsertsGroupCommit(t *testing.T) { testInsertsGroupCommit(t, 0) }

// TestShardedInsertsGroupCommit is the same on two shards: routing
// reserves the owner's next id under the index's lock and appends
// outside it, so writers routed to one shard share its fsyncs.
func TestShardedInsertsGroupCommit(t *testing.T) { testInsertsGroupCommit(t, 2) }

func testInsertsGroupCommit(t *testing.T, shards int) {
	const writers, each = 8, 25
	ds := data.Generate(data.Config{Name: "sgroup", N: 300 + writers*each, Dim: 32, Clusters: 4, Lo: 0, Hi: 1, Seed: 171})
	built, dir := build(t, ds.Vectors[:300], testOpts(shards))
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}

	// A slow fsync makes the overlap certain rather than likely: while
	// the leader sleeps, the other writers append and queue behind it.
	restore := iofault.SetGlobal(iofault.NewInjector(iofault.Rule{
		PathGlob: "wal.log", Op: iofault.OpSync, Latency: time.Millisecond,
	}))
	defer restore()
	s, err := hdindex.Open(dir, hdindex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ids := make([][]uint64, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, v := range ds.Vectors[300+w*each : 300+(w+1)*each] {
				id, err := s.Insert(v)
				if err != nil {
					t.Error(err)
					return
				}
				ids[w] = append(ids[w], id)
			}
		}(w)
	}
	wg.Wait()

	seen := make(map[uint64]bool)
	for _, w := range ids {
		for _, id := range w {
			if id < 300 || id >= 300+writers*each || seen[id] {
				t.Fatalf("id %d out of range or handed out twice", id)
			}
			seen[id] = true
		}
	}
	if got := s.Count(); got != 300+writers*each {
		t.Fatalf("Count = %d, want %d", got, 300+writers*each)
	}
	if syncs := s.IngestStats().WALSyncs; syncs > writers*each/2 {
		t.Fatalf("%d fsyncs for %d concurrent inserts: writers are not group-committing", syncs, writers*each)
	}
}
