package hdindex

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/hd-index/hdindex/internal/data"
)

func facadeFiles(t *testing.T, dir string) map[string][]byte {
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

// TestFacadeBuildDeterministicAcrossGOMAXPROCS is the top-level
// determinism guarantee: on every layout (bare, one shard, three), the
// bytes a build writes — and therefore every search result it will ever
// return — depend only on the dataset, options, and seed, never on how
// many of the machine's cores the build found idle. Only manifest.json
// (it embeds a creation timestamp) and identity.json (the cluster UUID
// is random by design — it exists to tell two builds apart) are exempt.
func TestFacadeBuildDeterministicAcrossGOMAXPROCS(t *testing.T) {
	ds := data.Generate(data.Config{N: 1501, Dim: 32, Clusters: 5, Lo: 0, Hi: 1, Seed: 17}) // 1501: a ragged stripe
	queries := ds.PerturbedQueries(8, 0.01, 4)

	for _, shards := range []int{0, 1, 3} {
		opts := Options{Tau: 4, Omega: 8, Alpha: 256, Gamma: 64, Seed: 5, Shards: shards}
		build := func(dir string, procs int) {
			old := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(old)
			ix, err := Build(dir, ds.Vectors, opts)
			if err != nil {
				t.Fatal(err)
			}
			ix.Close()
		}
		dirA, dirB := t.TempDir(), t.TempDir()
		build(dirA, 1)
		build(dirB, 8)

		fa, fb := facadeFiles(t, dirA), facadeFiles(t, dirB)
		if len(fa) != len(fb) {
			t.Fatalf("shards=%d: file sets differ: %d vs %d", shards, len(fa), len(fb))
		}
		for name, ab := range fa {
			switch filepath.Base(name) {
			case "manifest.json":
				continue // embeds a creation timestamp
			case "identity.json":
				continue // cluster UUID is random by design
			}
			bb, ok := fb[name]
			if !ok {
				t.Fatalf("shards=%d: %s missing from the second build", shards, name)
			}
			if !bytes.Equal(ab, bb) {
				t.Fatalf("shards=%d: %s differs across GOMAXPROCS", shards, name)
			}
		}

		ixA, err := Open(dirA, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ixB, err := Open(dirB, Options{})
		if err != nil {
			ixA.Close()
			t.Fatal(err)
		}
		for _, q := range queries {
			respA, err := ixA.Query(ctx, q, 10)
			if err != nil {
				t.Fatal(err)
			}
			respB, err := ixB.Query(ctx, q, 10)
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, fmt.Sprintf("shards=%d", shards), respB.Results, respA.Results)
		}
		ixA.Close()
		ixB.Close()
	}
}

// TestFacadeBuildContextCancelled: cancelling a rebuild, on every
// layout, invalidates the complete index it replaces and leaves a
// directory without a commit point (meta.json or manifest.json), which
// Open rejects.
func TestFacadeBuildContextCancelled(t *testing.T) {
	ds := data.Generate(data.Config{N: 800, Dim: 16, Clusters: 4, Lo: 0, Hi: 1, Seed: 19})
	for _, shards := range []int{0, 1, 2} {
		dir := filepath.Join(t.TempDir(), "ix")
		opts := Options{Tau: 4, Omega: 8, Seed: 2, Shards: shards}
		ix, err := Build(dir, ds.Vectors, opts)
		if err != nil {
			t.Fatal(err)
		}
		ix.Close()

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := BuildContext(ctx, dir, ds.Vectors, opts); err == nil {
			t.Fatalf("shards=%d: cancelled build must fail", shards)
		}
		for _, commit := range []string{"meta.json", "manifest.json"} {
			if _, err := os.Stat(filepath.Join(dir, commit)); !os.IsNotExist(err) {
				t.Fatalf("shards=%d: a cancelled build left %s behind (stat err %v)", shards, commit, err)
			}
		}
		if _, err := Open(dir, Options{}); err == nil {
			t.Fatalf("shards=%d: Open must reject a cancelled build's directory", shards)
		}
	}
}

// TestFacadeInfo checks the Info surface end to end on every layout: a
// built index exposes its construction breakdown (on a sharded layout
// aggregated across the shards), an opened one does not.
func TestFacadeInfo(t *testing.T) {
	ds := data.Generate(data.Config{N: 600, Dim: 16, Clusters: 4, Lo: 0, Hi: 1, Seed: 23})
	for _, shards := range []int{0, 1, 2} {
		dir := filepath.Join(t.TempDir(), "ix")
		ix, err := Build(dir, ds.Vectors, Options{Tau: 4, Omega: 8, Seed: 2, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		n := max(shards, 1)
		info := ix.Info()
		if info.Count != 600 || info.Dim != 16 || info.NumShards != n || len(info.Shards) != n {
			t.Fatalf("shards=%d: bad info: %+v", shards, info)
		}
		if info.Build == nil || info.Build.TotalMS <= 0 || info.Build.Allocs == 0 {
			t.Fatalf("shards=%d: fresh build must report build stats, got %+v", shards, info.Build)
		}
		if ix.BuildStats() != info.Build {
			t.Fatalf("shards=%d: BuildStats() is not Info().Build", shards)
		}
		ix.Close()

		re, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if re.Info().Build != nil || re.BuildStats() != nil {
			t.Fatalf("shards=%d: opened index must report no build stats", shards)
		}
		re.Close()
	}
}
