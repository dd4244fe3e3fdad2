package hdindex

import (
	"bytes"
	"context"
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
// determinism guarantee: on both layouts, the bytes a build writes —
// and therefore every search result it will ever return — depend only
// on the dataset, options, and seed, never on how many of the machine's
// cores the build found idle.
func TestFacadeBuildDeterministicAcrossGOMAXPROCS(t *testing.T) {
	ds := data.Generate(data.Config{N: 1500, Dim: 32, Clusters: 5, Lo: 0, Hi: 1, Seed: 17})
	queries := ds.PerturbedQueries(8, 0.01, 4)

	for _, shards := range []int{0, 3} {
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
			if !bytes.Equal(ab, fb[name]) {
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
			ra, rb := respA.Results, respB.Results
			if len(ra) != len(rb) {
				t.Fatalf("shards=%d: result counts differ", shards)
			}
			for i := range ra {
				if ra[i] != rb[i] {
					t.Fatalf("shards=%d result %d: %+v vs %+v", shards, i, ra[i], rb[i])
				}
			}
		}
		ixA.Close()
		ixB.Close()
	}
}

// TestFacadeBuildContextCancelled: cancellation through the facade, on
// both layouts, leaves a directory Open rejects.
func TestFacadeBuildContextCancelled(t *testing.T) {
	ds := data.Generate(data.Config{N: 800, Dim: 16, Clusters: 4, Lo: 0, Hi: 1, Seed: 19})
	for _, shards := range []int{0, 2} {
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
		if _, err := Open(dir, Options{}); err == nil {
			t.Fatalf("shards=%d: Open must reject a cancelled build's directory", shards)
		}
	}
}

// TestFacadeInfo checks the Info surface end to end: a built index
// exposes its construction breakdown, an opened one does not.
func TestFacadeInfo(t *testing.T) {
	ds := data.Generate(data.Config{N: 600, Dim: 16, Clusters: 4, Lo: 0, Hi: 1, Seed: 23})
	dir := filepath.Join(t.TempDir(), "ix")
	ix, err := Build(dir, ds.Vectors, Options{Tau: 4, Omega: 8, Seed: 2, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	info := ix.Info()
	if info.Count != 600 || info.Dim != 16 || info.NumShards != 2 || len(info.Shards) != 2 {
		t.Fatalf("bad info: %+v", info)
	}
	if info.Build == nil || info.Build.TotalMS <= 0 || info.Build.Allocs == 0 {
		t.Fatalf("fresh build must report build stats, got %+v", info.Build)
	}
	ix.Close()

	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Info(); got.Build != nil {
		t.Fatal("opened index must report Build == nil")
	}
}
