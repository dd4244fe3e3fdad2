package shard_test

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/hd-index/hdindex"
	"github.com/hd-index/hdindex/internal/data"
	"github.com/hd-index/hdindex/internal/shard"
)

// FuzzManifest writes a fuzzed manifest.json over a real two-shard
// layout and opens it. Whatever the bytes say, Open returns an index or
// an error: a shard count no shard directory backs must not size an
// allocation, and an index that opens has the manifest's shard count
// and dimensionality.
func FuzzManifest(f *testing.F) {
	ds := data.Generate(data.Config{Name: "fuzzmanifest", N: 60, Dim: 8, Lo: 0, Hi: 1, Seed: 21})
	dir := filepath.Join(f.TempDir(), "ix")
	ix, err := hdindex.Build(dir, ds.Vectors, hdindex.Options{Tau: 2, Omega: 8, M: 3, Alpha: 16, Gamma: 8, Seed: 5, Shards: 2})
	if err != nil {
		f.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(dir, shard.ManifestFile)
	written, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(written)
	f.Add([]byte(`{"format_version":1,"shards":1099511627776,"dim":8}`))
	f.Fuzz(func(t *testing.T, manifest []byte) {
		if err := os.WriteFile(path, manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		man, readErr := shard.ReadManifest(dir)
		ix, err := hdindex.Open(dir, hdindex.Options{})
		if err != nil {
			return
		}
		defer ix.Close()
		if readErr != nil {
			t.Fatalf("Open accepted a manifest ReadManifest rejects: %v", readErr)
		}
		if ix.NumShards() != man.Shards || ix.Dim() != man.Dim {
			t.Fatalf("opened %d shards of dimensionality %d, manifest declares %d of %d",
				ix.NumShards(), ix.Dim(), man.Shards, man.Dim)
		}
	})
}
