package shard

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/hd-index/hdindex/internal/core"
	"github.com/hd-index/hdindex/internal/data"
	"github.com/hd-index/hdindex/internal/metrics"
)

// testParams keeps shard-level tests fast but representative: real
// filtering (alpha < n) over clustered data.
func testParams(shards int) Params {
	return Params{
		Params: core.Params{Tau: 4, Omega: 8, M: 4, Alpha: 256, Gamma: 64, Seed: 7},
		Shards: shards,
	}
}

func testData(t *testing.T, n int) *data.Dataset {
	t.Helper()
	return data.Generate(data.Config{Name: "shardtest", N: n, Dim: 32, Clusters: 6, Lo: 0, Hi: 1, Seed: 11})
}

func TestBuildSearchQuality(t *testing.T) {
	ds := testData(t, 2001) // deliberately not divisible by 4
	queries := ds.PerturbedQueries(10, 0.01, 3)
	dir := filepath.Join(t.TempDir(), "ix")

	s, err := Build(dir, ds.Vectors, testParams(4))
	if err != nil {
		t.Fatal(err)
	}
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
	infos := s.ShardInfos()
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
		res, st, err := s.Query(context.Background(), q, 10, core.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 10 {
			t.Fatalf("%d results", len(res))
		}
		if st.Candidates == 0 || st.TreeEntries == 0 {
			t.Fatalf("aggregated stats not populated: %+v", st)
		}
		if st.PageHits+st.PageMisses == 0 {
			t.Fatalf("buffer-pool counters not aggregated across shards: %+v", st)
		}
		ids := make([]uint64, len(res))
		for i, r := range res {
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
	dir := filepath.Join(t.TempDir(), "ix")
	s, err := Build(dir, ds.Vectors, testParams(4))
	if err != nil {
		t.Fatal(err)
	}

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
		res, _, err := s.Query(context.Background(), vec, 1, core.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res[0].ID != id {
			t.Fatalf("inserted id %d not nearest to itself: %+v", id, res[0])
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

	re, err := Open(dir, core.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Count() != 1010 {
		t.Fatalf("reopened count = %d", re.Count())
	}
	// The next insert resumes the sequence where it left off.
	vec := make([]float32, 32)
	id, err := re.Insert(vec)
	if err != nil {
		t.Fatal(err)
	}
	if id != 1010 {
		t.Fatalf("post-reopen insert assigned id %d, want 1010", id)
	}
}

func TestDeleteRouting(t *testing.T) {
	ds := testData(t, 800)
	dir := filepath.Join(t.TempDir(), "ix")
	s, err := Build(dir, ds.Vectors, testParams(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	q := ds.Vectors[123]
	res, _, err := s.Query(context.Background(), q, 1, core.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID != 123 {
		t.Fatalf("self-query returned %d", res[0].ID)
	}
	if err := s.Delete(123); err != nil {
		t.Fatal(err)
	}
	if s.DeletedCount() != 1 {
		t.Fatalf("DeletedCount = %d", s.DeletedCount())
	}
	res, _, err = s.Query(context.Background(), q, 1, core.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID == 123 {
		t.Fatal("deleted id still returned")
	}
	if err := s.Undelete(123); err != nil {
		t.Fatal(err)
	}
	res, _, err = s.Query(context.Background(), q, 1, core.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID != 123 {
		t.Fatal("undeleted id not returned")
	}

	if err := s.Delete(800); !errors.Is(err, core.ErrUnknownID) {
		t.Fatalf("delete of unknown id: %v", err)
	}
	if err := s.Undelete(12345); !errors.Is(err, core.ErrUnknownID) {
		t.Fatalf("undelete of unknown id: %v", err)
	}
}

func TestBatchMatchesSingle(t *testing.T) {
	ds := testData(t, 900)
	queries := ds.PerturbedQueries(12, 0.01, 5)
	s, err := Build(filepath.Join(t.TempDir(), "ix"), ds.Vectors, testParams(3))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	batch, _, err := s.QueryBatch(context.Background(), queries, 5, core.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(queries) {
		t.Fatalf("%d batch results", len(batch))
	}
	for qi, q := range queries {
		single, _, err := s.Query(context.Background(), q, 5, core.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(single) != len(batch[qi]) {
			t.Fatalf("query %d: %d vs %d results", qi, len(batch[qi]), len(single))
		}
		for i := range single {
			if single[i].ID != batch[qi][i].ID {
				t.Fatalf("query %d rank %d: batch %d, single %d", qi, i, batch[qi][i].ID, single[i].ID)
			}
		}
	}
}

func TestCancellation(t *testing.T) {
	ds := testData(t, 600)
	s, err := Build(filepath.Join(t.TempDir(), "ix"), ds.Vectors, testParams(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.Query(ctx, ds.Vectors[0], 5, core.SearchOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search: %v", err)
	}
	if _, _, err := s.QueryBatch(ctx, ds.PerturbedQueries(4, 0.01, 1), 5, core.SearchOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch: %v", err)
	}
}

func TestBuildErrors(t *testing.T) {
	ds := testData(t, 10)
	if _, err := Build(filepath.Join(t.TempDir(), "x"), nil, testParams(2)); err == nil {
		t.Error("empty dataset must fail")
	}
	if _, err := Build(filepath.Join(t.TempDir(), "x"), ds.Vectors, testParams(11)); err == nil {
		t.Error("more shards than vectors must fail")
	}
	p := testParams(-1)
	if _, err := Build(filepath.Join(t.TempDir(), "x"), ds.Vectors, p); err == nil {
		t.Error("negative shard count must fail")
	}
}

func TestOpenRejectsBadLayouts(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "missing"), core.OpenOptions{}); err == nil {
		t.Error("missing layout must fail")
	}

	// A bare core directory has no manifest and opens as one shard.
	ds := testData(t, 400)
	bareDir := filepath.Join(t.TempDir(), "bare")
	p := testParams(1)
	ix, err := core.Build(bareDir, ds.Vectors, p.Params)
	if err != nil {
		t.Fatal(err)
	}
	ix.Close()
	if IsSharded(bareDir) {
		t.Error("bare dir misdetected as a manifest layout")
	}
	one, err := Open(bareDir, core.OpenOptions{})
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
	if err := os.WriteFile(filepath.Join(dir, ManifestFile), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, core.OpenOptions{}); err == nil {
		t.Error("corrupt manifest must fail")
	}

	// Future format version.
	if err := os.WriteFile(filepath.Join(dir, ManifestFile),
		[]byte(`{"format_version":99,"shards":1,"dim":8}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, core.OpenOptions{}); err == nil {
		t.Error("future manifest version must fail")
	}

	// A shard whose dimensionality disagrees with the manifest.
	mixed := filepath.Join(t.TempDir(), "mixed")
	s2, err := Build(mixed, ds.Vectors, testParams(2))
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
	other := data.Generate(data.Config{Name: "d16", N: 100, Dim: 16, Clusters: 2, Lo: 0, Hi: 1, Seed: 3})
	p16 := core.Params{Tau: 4, Omega: 8, M: 4, Alpha: 64, Gamma: 16, Seed: 7}
	sub16, err := core.Build(filepath.Join(mixed, "shard-01"), other.Vectors, p16)
	if err != nil {
		t.Fatal(err)
	}
	sub16.Close()
	if _, err := Open(mixed, core.OpenOptions{}); err == nil {
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
	dir := filepath.Join(t.TempDir(), "ragged")
	s, err := Build(dir, ds.Vectors, testParams(2))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate the torn state: shard 1 persisted an extra insert (global
	// id 401) that shard 0's counterpart (global id 400) never reached
	// disk. Shard counts become (200, 201).
	sub, err := core.Open(filepath.Join(dir, "shard-01"), core.OpenOptions{})
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

	re, err := Open(dir, core.OpenOptions{})
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
	if err := re.Delete(400); !errors.Is(err, core.ErrUnknownID) {
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
	dir := filepath.Join(t.TempDir(), "ix")
	s, err := Build(dir, ds.Vectors, testParams(2))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := clearLayout(dir); err != nil {
		t.Fatal(err)
	}
	if IsSharded(dir) {
		t.Fatal("manifest survived ClearLayout")
	}
	if _, err := os.Stat(filepath.Join(dir, "shard-00")); !os.IsNotExist(err) {
		t.Fatal("shard dir survived ClearLayout")
	}
	// Idempotent, and fine on a directory that never held a layout.
	if err := clearLayout(dir); err != nil {
		t.Fatal(err)
	}
	if err := clearLayout(filepath.Join(t.TempDir(), "missing")); err != nil {
		t.Fatal(err)
	}
}
