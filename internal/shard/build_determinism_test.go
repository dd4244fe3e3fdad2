package shard_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/hd-index/hdindex"
	"github.com/hd-index/hdindex/internal/shard"
)

// shardFiles maps relative path → bytes for every file under dir.
func shardFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out[rel] = b
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestShardedBuildDeterministicAcrossGOMAXPROCS pins layout-level
// determinism: a build alone on one CPU and one that idle CPUs join on
// eight must not differ in a single byte of any shard. Only
// manifest.json (embeds a creation timestamp) and identity.json (the
// cluster UUID is random by design — it exists to tell two builds
// apart) are exempt.
func TestShardedBuildDeterministicAcrossGOMAXPROCS(t *testing.T) {
	ds := testData(t, 1501)
	buildAt := func(procs int) string {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		s, dir := build(t, ds.Vectors, testOpts(3))
		s.Close()
		return dir
	}
	dirA := buildAt(1)
	dirB := buildAt(8)

	fa, fb := shardFiles(t, dirA), shardFiles(t, dirB)
	if len(fa) != len(fb) {
		t.Fatalf("file sets differ: %d vs %d", len(fa), len(fb))
	}
	for name, ab := range fa {
		switch filepath.Base(name) {
		case shard.ManifestFile:
			continue // CreatedUnix timestamp differs by design
		case "identity.json":
			continue // ClusterUUID differs by design
		}
		bb, ok := fb[name]
		if !ok {
			t.Fatalf("%s missing from second build", name)
		}
		if !bytes.Equal(ab, bb) {
			t.Fatalf("%s differs between GOMAXPROCS=1 and =8 builds", name)
		}
	}

	// Identical files ⇒ identical answers; spot-check through search.
	sa, err := hdindex.Open(dirA, hdindex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	sb, err := hdindex.Open(dirB, hdindex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	for _, q := range ds.PerturbedQueries(10, 0.01, 5) {
		ra, err := sa.Query(ctx, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := sb.Query(ctx, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(ra.Results) != len(rb.Results) {
			t.Fatalf("result counts differ: %d vs %d", len(ra.Results), len(rb.Results))
		}
		for i := range ra.Results {
			if ra.Results[i] != rb.Results[i] {
				t.Fatalf("result %d differs: %+v vs %+v", i, ra.Results[i], rb.Results[i])
			}
		}
	}
}

// TestShardedBuildContextCancelled: a cancelled sharded build must
// leave a directory without a manifest, which Open rejects.
func TestShardedBuildContextCancelled(t *testing.T) {
	ds := testData(t, 900)
	// Complete layout first: cancellation of a rebuild must invalidate it.
	s, dir := build(t, ds.Vectors, testOpts(2))
	s.Close()

	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := hdindex.BuildContext(cctx, dir, ds.Vectors, testOpts(2)); err == nil {
		t.Fatal("cancelled sharded build must fail")
	}
	if _, err := hdindex.Open(dir, hdindex.Options{}); err == nil {
		t.Fatal("Open must reject a cancelled build's directory")
	}
}

// TestShardedBuildStats: a fresh sharded build aggregates per-shard
// stats; an opened layout reports nil.
func TestShardedBuildStats(t *testing.T) {
	ds := testData(t, 800)
	s, dir := build(t, ds.Vectors, testOpts(2))
	bs := s.BuildStats()
	if bs == nil {
		t.Fatal("fresh sharded build must report BuildStats")
	}
	if bs.TotalMS <= 0 || bs.Allocs == 0 {
		t.Fatalf("implausible aggregate stats: %+v", bs)
	}
	s.Close()
	re, err := hdindex.Open(dir, hdindex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.BuildStats() != nil {
		t.Fatal("opened layout must not report BuildStats")
	}
}
