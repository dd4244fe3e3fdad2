package shard_test

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/hd-index/hdindex"
	"github.com/hd-index/hdindex/internal/data"
	"github.com/hd-index/hdindex/internal/shard"
)

// A stamp no sharded build can write — an ordinal outside [0, shards),
// a dimensionality below 1 — is an error from ReadIdentity, so a server
// never reports it, and from WriteIdentity, so none reaches disk.
func TestIdentityRejectsImpossibleStamps(t *testing.T) {
	for name, stamp := range map[string]string{
		"negative":       `{"cluster_uuid": "u", "shard": -3, "shards": 0, "dim": -1}`,
		"shard = shards": `{"cluster_uuid": "u", "shard": 2, "shards": 2, "dim": 8}`,
		"no shards":      `{"cluster_uuid": "u", "shard": 0, "shards": 0, "dim": 8}`,
		"dim 0":          `{"cluster_uuid": "u", "shard": 1, "shards": 2, "dim": 0}`,
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, shard.IdentityFile), []byte(stamp), 0o644); err != nil {
			t.Fatal(err)
		}
		if id, err := shard.ReadIdentity(dir); err == nil {
			t.Errorf("%s: ReadIdentity accepted %+v", name, id)
		}
	}
	for _, id := range []shard.Identity{{Shard: -3, Shards: 0, Dim: -1}, {Shard: 2, Shards: 2, Dim: 8}, {Shard: 0, Shards: 1, Dim: 0}} {
		dir := t.TempDir()
		if err := shard.WriteIdentity(dir, id); err == nil {
			t.Errorf("WriteIdentity accepted %+v", id)
		}
		if _, err := os.Stat(filepath.Join(dir, shard.IdentityFile)); !os.IsNotExist(err) {
			t.Errorf("WriteIdentity of %+v left a file behind: %v", id, err)
		}
	}
	want := shard.Identity{ClusterUUID: "u", Shard: 1, Shards: 2, Dim: 8}
	dir := t.TempDir()
	if err := shard.WriteIdentity(dir, want); err != nil {
		t.Fatal(err)
	}
	if got, err := shard.ReadIdentity(dir); err != nil || *got != want {
		t.Fatalf("ReadIdentity = %+v, %v; want %+v", got, err, want)
	}
}

// FuzzIdentity reads fuzzed identity.json bytes. ReadIdentity returns a
// stamp or an error, never a panic, and a stamp it accepts is one
// WriteIdentity writes and ReadIdentity reads back unchanged. Seeded
// from the stamps of a real two-shard build.
func FuzzIdentity(f *testing.F) {
	ds := data.Generate(data.Config{Name: "fuzzidentity", N: 60, Dim: 8, Lo: 0, Hi: 1, Seed: 22})
	dir := filepath.Join(f.TempDir(), "ix")
	ix, err := hdindex.Build(dir, ds.Vectors, hdindex.Options{Tau: 2, Omega: 8, M: 3, Alpha: 16, Gamma: 8, Seed: 5, Shards: 2})
	if err != nil {
		f.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		f.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		stamp, err := os.ReadFile(filepath.Join(shard.Dir(dir, s), shard.IdentityFile))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(stamp)
	}
	f.Add([]byte(`{"shard": -3, "shards": 0, "dim": -1}`))
	f.Fuzz(func(t *testing.T, stamp []byte) {
		in := t.TempDir()
		if err := os.WriteFile(filepath.Join(in, shard.IdentityFile), stamp, 0o644); err != nil {
			t.Fatal(err)
		}
		id, err := shard.ReadIdentity(in)
		if err != nil {
			return
		}
		out := t.TempDir()
		if err := shard.WriteIdentity(out, *id); err != nil {
			t.Fatalf("WriteIdentity rejected the stamp ReadIdentity accepted, %+v: %v", *id, err)
		}
		back, err := shard.ReadIdentity(out)
		if err != nil || *back != *id {
			t.Fatalf("%+v read back as %+v, %v", *id, back, err)
		}
	})
}
