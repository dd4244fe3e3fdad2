// The layout's behaviour end to end — striping, routing, the scatter,
// crash healing — is tested through its one handle, hdindex.Index, so
// these tests live in the external test package.
package shard_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/hd-index/hdindex"
	"github.com/hd-index/hdindex/internal/core"
	"github.com/hd-index/hdindex/internal/data"
	"github.com/hd-index/hdindex/internal/metrics"
	"github.com/hd-index/hdindex/internal/shard"
)

// ctx is the context of every call in this package's tests that does
// not exercise cancellation.
var ctx = context.Background()

// testOpts keeps layout tests fast but representative: real filtering
// (alpha < n) over clustered data.
func testOpts(shards int) hdindex.Options {
	return hdindex.Options{Tau: 4, Omega: 8, M: 4, Alpha: 256, Gamma: 64, Seed: 7, Shards: shards}
}

func testData(t *testing.T, n int) *data.Dataset {
	t.Helper()
	return data.Generate(data.Config{Name: "shardtest", N: n, Dim: 32, Clusters: 6, Lo: 0, Hi: 1, Seed: 11})
}

// build builds vectors under opts into a fresh directory and returns
// the index and the directory.
func build(t *testing.T, vectors [][]float32, opts hdindex.Options) (*hdindex.Index, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ix")
	ix, err := hdindex.Build(dir, vectors, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ix, dir
}

// nearest returns the id of q's nearest neighbour.
func nearest(t *testing.T, ix *hdindex.Index, q []float32) uint64 {
	t.Helper()
	resp, err := ix.Query(ctx, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	return resp.Results[0].ID
}

func TestBuildSearchQuality(t *testing.T) {
	ds := testData(t, 2001) // deliberately not divisible by 4
	queries := ds.PerturbedQueries(10, 0.01, 3)
	s, _ := build(t, ds.Vectors, testOpts(4))
	defer s.Close()

	if s.NumShards() != 4 {
		t.Fatalf("NumShards = %d", s.NumShards())
	}
	if s.Count() != 2001 || s.Dim() != 32 {
		t.Fatalf("count=%d dim=%d", s.Count(), s.Dim())
	}
	if s.SizeOnDisk() <= 0 {
		t.Fatal("SizeOnDisk must be positive")
	}

	// Striping balance: per-shard counts differ by at most one and sum
	// to the total.
	infos := s.Info().Shards
	var sum, min, max uint64
	min = infos[0].Count
	for _, in := range infos {
		sum += in.Count
		if in.Count < min {
			min = in.Count
		}
		if in.Count > max {
			max = in.Count
		}
	}
	if sum != 2001 || max-min > 1 {
		t.Fatalf("shard counts %+v: sum=%d spread=%d", infos, sum, max-min)
	}

	truthIDs, _ := data.GroundTruth(ds.Vectors, queries, 10)
	var got [][]uint64
	for _, q := range queries {
		resp, err := s.Query(ctx, q, 10, hdindex.WithStats())
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != 10 {
			t.Fatalf("%d results", len(resp.Results))
		}
		st := resp.Stats
		if st.Candidates == 0 || st.TreeEntries == 0 {
			t.Fatalf("aggregated stats not populated: %+v", st)
		}
		if st.PageHits+st.PageMisses == 0 {
			t.Fatalf("buffer-pool counters not aggregated across shards: %+v", st)
		}
		ids := make([]uint64, len(resp.Results))
		for i, r := range resp.Results {
			ids[i] = r.ID
		}
		got = append(got, ids)
	}
	if m := metrics.MAP(got, truthIDs, 10); m < 0.5 {
		t.Errorf("sharded MAP@10 = %v", m)
	}
}

func TestInsertRoutingAndReopen(t *testing.T) {
	ds := testData(t, 1001)
	s, dir := build(t, ds.Vectors, testOpts(4))

	// Inserts continue the dense global id sequence and stay findable.
	for i := 0; i < 9; i++ {
		vec := make([]float32, 32)
		for d := range vec {
			vec[d] = 0.9 + float32(i)*0.001
		}
		id, err := s.Insert(vec)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(1001 + i); id != want {
			t.Fatalf("insert %d assigned id %d, want %d", i, id, want)
		}
		if got := nearest(t, s, vec); got != id {
			t.Fatalf("inserted id %d not nearest to itself: %d", id, got)
		}
	}
	if s.Count() != 1010 {
		t.Fatalf("count = %d", s.Count())
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := hdindex.Open(dir, hdindex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Count() != 1010 {
		t.Fatalf("reopened count = %d", re.Count())
	}
	// The next insert resumes the sequence where it left off.
	id, err := re.Insert(make([]float32, 32))
	if err != nil {
		t.Fatal(err)
	}
	if id != 1010 {
		t.Fatalf("post-reopen insert assigned id %d, want 1010", id)
	}
}

func TestDeleteRouting(t *testing.T) {
	ds := testData(t, 800)
	s, _ := build(t, ds.Vectors, testOpts(4))
	defer s.Close()

	q := ds.Vectors[123]
	if got := nearest(t, s, q); got != 123 {
		t.Fatalf("self-query returned %d", got)
	}
	if err := s.Delete(123); err != nil {
		t.Fatal(err)
	}
	if s.DeletedCount() != 1 {
		t.Fatalf("DeletedCount = %d", s.DeletedCount())
	}
	if nearest(t, s, q) == 123 {
		t.Fatal("deleted id still returned")
	}
	if err := s.Undelete(123); err != nil {
		t.Fatal(err)
	}
	if nearest(t, s, q) != 123 {
		t.Fatal("undeleted id not returned")
	}

	if err := s.Delete(800); !errors.Is(err, hdindex.ErrUnknownID) {
		t.Fatalf("delete of unknown id: %v", err)
	}
	if err := s.Undelete(12345); !errors.Is(err, hdindex.ErrUnknownID) {
		t.Fatalf("undelete of unknown id: %v", err)
	}
}

func TestBatchMatchesSingle(t *testing.T) {
	ds := testData(t, 900)
	queries := ds.PerturbedQueries(12, 0.01, 5)
	s, _ := build(t, ds.Vectors, testOpts(3))
	defer s.Close()

	batch, err := s.QueryBatch(ctx, queries, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(queries) {
		t.Fatalf("%d batch results", len(batch))
	}
	for qi, q := range queries {
		single, err := s.Query(ctx, q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(single.Results) != len(batch[qi].Results) {
			t.Fatalf("query %d: %d vs %d results", qi, len(batch[qi].Results), len(single.Results))
		}
		for i, r := range single.Results {
			if r.ID != batch[qi].Results[i].ID {
				t.Fatalf("query %d rank %d: batch %d, single %d", qi, i, batch[qi].Results[i].ID, r.ID)
			}
		}
	}
}

func TestCancellation(t *testing.T) {
	ds := testData(t, 600)
	s, _ := build(t, ds.Vectors, testOpts(2))
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Query(ctx, ds.Vectors[0], 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search: %v", err)
	}
	if _, err := s.QueryBatch(ctx, ds.PerturbedQueries(4, 0.01, 1), 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch: %v", err)
	}
}

func TestBuildErrors(t *testing.T) {
	ds := testData(t, 10)
	if _, err := hdindex.Build(filepath.Join(t.TempDir(), "x"), nil, testOpts(2)); err == nil {
		t.Error("empty dataset must fail")
	}
	if _, err := hdindex.Build(filepath.Join(t.TempDir(), "x"), ds.Vectors, testOpts(11)); err == nil {
		t.Error("more shards than vectors must fail")
	}
	if _, err := hdindex.Build(filepath.Join(t.TempDir(), "x"), ds.Vectors, testOpts(-1)); err == nil {
		t.Error("negative shard count must fail")
	}
}

func TestOpenRejectsBadLayouts(t *testing.T) {
	if _, err := hdindex.Open(filepath.Join(t.TempDir(), "missing"), hdindex.Options{}); err == nil {
		t.Error("missing layout must fail")
	}

	// A bare core directory has no manifest and opens as one shard.
	ds := testData(t, 400)
	bareDir := filepath.Join(t.TempDir(), "bare")
	ix, err := core.Build(bareDir, ds.Vectors, core.Params{Tau: 4, Omega: 8, M: 4, Alpha: 256, Gamma: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close()
	if shard.IsSharded(bareDir) {
		t.Error("bare dir misdetected as a manifest layout")
	}
	one, err := hdindex.Open(bareDir, hdindex.Options{})
	if err != nil {
		t.Fatalf("bare dir must open as one shard: %v", err)
	}
	if one.NumShards() != 1 || one.Count() != 400 {
		t.Errorf("bare dir opened as %d shards holding %d vectors, want 1 and 400", one.NumShards(), one.Count())
	}
	one.Close()

	// Corrupt manifest.
	dir := filepath.Join(t.TempDir(), "corrupt")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, shard.ManifestFile), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := hdindex.Open(dir, hdindex.Options{}); err == nil {
		t.Error("corrupt manifest must fail")
	}

	// Future format version.
	if err := os.WriteFile(filepath.Join(dir, shard.ManifestFile),
		[]byte(`{"format_version":99,"shards":1,"dim":8}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := hdindex.Open(dir, hdindex.Options{}); err == nil {
		t.Error("future manifest version must fail")
	}

	// A shard whose dimensionality disagrees with the manifest.
	s2, mixed := build(t, ds.Vectors, testOpts(2))
	s2.Close()
	other := data.Generate(data.Config{Name: "d16", N: 100, Dim: 16, Clusters: 2, Lo: 0, Hi: 1, Seed: 3})
	p16 := core.Params{Tau: 4, Omega: 8, M: 4, Alpha: 64, Gamma: 16, Seed: 7}
	sub16, err := core.Build(shard.Dir(mixed, 1), other.Vectors, p16)
	if err != nil {
		t.Fatal(err)
	}
	sub16.Close()
	if _, err := hdindex.Open(mixed, hdindex.Options{}); err == nil {
		t.Error("dim-mismatched shard must fail to open")
	}
}

// A crash can persist one shard's tail and not another's (each shard
// flushes independently), leaving skewed counts. The layout must still
// open, report the honest total, and refill the lost ids on the next
// inserts instead of bricking — a single core index's crash semantics,
// where unflushed inserts lose their ids to later ones.
func TestRaggedTailSelfHeals(t *testing.T) {
	ds := testData(t, 400)
	s, dir := build(t, ds.Vectors, testOpts(2))
	s.Close()

	// Simulate the torn state: shard 1 persisted an extra insert (global
	// id 401) that shard 0's counterpart (global id 400) never reached
	// disk. Shard counts become (200, 201).
	sub, err := core.Open(shard.Dir(dir, 1), core.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	orphan := make([]float32, 32)
	for d := range orphan {
		orphan[d] = 0.42
	}
	if _, err := sub.Insert(orphan); err != nil {
		t.Fatal(err)
	}
	if err := sub.Flush(); err != nil {
		t.Fatal(err)
	}
	sub.Close()

	re, err := hdindex.Open(dir, hdindex.Options{})
	if err != nil {
		t.Fatalf("ragged layout must open: %v", err)
	}
	defer re.Close()
	if re.Count() != 401 {
		t.Fatalf("count = %d, want 401", re.Count())
	}
	// The surviving orphan id is owned by shard 1 and stays addressable;
	// the lost id 400 is a hole.
	if err := re.Delete(401); err != nil {
		t.Fatalf("delete of surviving id 401: %v", err)
	}
	if err := re.Undelete(401); err != nil {
		t.Fatal(err)
	}
	if err := re.Delete(400); !errors.Is(err, hdindex.ErrUnknownID) {
		t.Fatalf("delete of hole id 400: %v", err)
	}
	// The next insert refills the hole, restoring balanced striping.
	id, err := re.Insert(make([]float32, 32))
	if err != nil {
		t.Fatal(err)
	}
	if id != 400 {
		t.Fatalf("healing insert assigned id %d, want 400", id)
	}
	id, err = re.Insert(make([]float32, 32))
	if err != nil {
		t.Fatal(err)
	}
	if id != 402 {
		t.Fatalf("post-heal insert assigned id %d, want 402", id)
	}
}

func TestClearLayout(t *testing.T) {
	ds := testData(t, 300)
	s, dir := build(t, ds.Vectors, testOpts(2))
	s.Close()
	if err := shard.ClearLayout(dir); err != nil {
		t.Fatal(err)
	}
	if shard.IsSharded(dir) {
		t.Fatal("manifest survived ClearLayout")
	}
	if _, err := os.Stat(shard.Dir(dir, 0)); !os.IsNotExist(err) {
		t.Fatal("shard dir survived ClearLayout")
	}
	// Idempotent, and fine on a directory that never held a layout.
	if err := shard.ClearLayout(dir); err != nil {
		t.Fatal(err)
	}
	if err := shard.ClearLayout(filepath.Join(t.TempDir(), "missing")); err != nil {
		t.Fatal(err)
	}
}
