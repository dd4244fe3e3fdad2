package shard

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/hd-index/hdindex/internal/core"
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
	build := func(dir string, procs int) {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		s, err := Build(dir, ds.Vectors, testParams(3))
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	build(dirA, 1)
	build(dirB, 8)

	fa, fb := shardFiles(t, dirA), shardFiles(t, dirB)
	if len(fa) != len(fb) {
		t.Fatalf("file sets differ: %d vs %d", len(fa), len(fb))
	}
	for name, ab := range fa {
		switch filepath.Base(name) {
		case "manifest.json":
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
	sa, err := Open(dirA, core.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	sb, err := Open(dirB, core.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	for _, q := range ds.PerturbedQueries(10, 0.01, 5) {
		ra, _, err := sa.Query(context.Background(), q, 10, core.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rb, _, err := sb.Query(context.Background(), q, 10, core.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(ra) != len(rb) {
			t.Fatalf("result counts differ: %d vs %d", len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("result %d differs: %+v vs %+v", i, ra[i], rb[i])
			}
		}
	}
}

// TestShardedBuildContextCancelled: a cancelled sharded build must
// leave a directory without a manifest, which Open rejects.
func TestShardedBuildContextCancelled(t *testing.T) {
	ds := testData(t, 900)
	dir := filepath.Join(t.TempDir(), "ix")
	// Complete layout first: cancellation of a rebuild must invalidate it.
	s, err := Build(dir, ds.Vectors, testParams(2))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildContext(ctx, dir, ds.Vectors, testParams(2)); err == nil {
		t.Fatal("cancelled sharded build must fail")
	}
	if _, err := Open(dir, core.OpenOptions{}); err == nil {
		t.Fatal("Open must reject a cancelled build's directory")
	}
}

// TestShardedBuildStats: a fresh sharded build aggregates per-shard
// stats; an opened layout reports nil.
func TestShardedBuildStats(t *testing.T) {
	ds := testData(t, 800)
	dir := filepath.Join(t.TempDir(), "ix")
	s, err := Build(dir, ds.Vectors, testParams(2))
	if err != nil {
		t.Fatal(err)
	}
	bs := s.BuildStats()
	if bs == nil {
		t.Fatal("fresh sharded build must report BuildStats")
	}
	if bs.TotalMS <= 0 || bs.Allocs == 0 {
		t.Fatalf("implausible aggregate stats: %+v", bs)
	}
	s.Close()
	re, err := Open(dir, core.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.BuildStats() != nil {
		t.Fatal("opened layout must not report BuildStats")
	}
}
