package cluster

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func validManifest() *Manifest {
	return &Manifest{
		FormatVersion: ManifestFormatVersion,
		UUID:          "abc123",
		Dim:           32,
		Shards: []ShardSpec{
			{Ordinal: 0, Replicas: []string{"http://10.0.0.1:8080", "10.0.0.2:8080"}},
			{Ordinal: 1, Replicas: []string{"http://10.0.0.3:8080/"}},
		},
	}
}

func TestManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := WriteManifest(path, validManifest()); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.UUID != "abc123" || m.Dim != 32 || len(m.Shards) != 2 {
		t.Fatalf("round trip lost fields: %+v", m)
	}
	// Reading normalizes: bare host:port promoted, trailing slash gone.
	if got := m.Shards[0].Replicas[1]; got != "http://10.0.0.2:8080" {
		t.Fatalf("bare host:port not promoted: %q", got)
	}
	if got := m.Shards[1].Replicas[0]; got != "http://10.0.0.3:8080" {
		t.Fatalf("trailing slash kept: %q", got)
	}
}

func TestManifestValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Manifest)
		want string
	}{
		{"wrong version", func(m *Manifest) { m.FormatVersion = 99 }, "format version"},
		{"zero dim", func(m *Manifest) { m.Dim = 0 }, "dimensionality"},
		{"no shards", func(m *Manifest) { m.Shards = nil }, "no shards"},
		{"out of order", func(m *Manifest) { m.Shards[0].Ordinal = 1 }, "ordinal"},
		{"no replicas", func(m *Manifest) { m.Shards[1].Replicas = nil }, "no replicas"},
		{"blank replica", func(m *Manifest) { m.Shards[0].Replicas[0] = "  " }, "empty"},
		{"slashes only", func(m *Manifest) { m.Shards[0].Replicas[0] = " / /" }, "empty"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := validManifest()
			tc.mut(m)
			err := m.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
			// A bad manifest must never reach disk.
			if err := WriteManifest(filepath.Join(t.TempDir(), "m.json"), m); err == nil {
				t.Fatal("WriteManifest accepted an invalid manifest")
			}
		})
	}
}

func TestReadManifestMissing(t *testing.T) {
	if _, err := ReadManifest(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("reading a missing manifest succeeded")
	}
}

// FuzzClusterManifest reads fuzzed cluster manifest bytes. ReadManifest
// returns a manifest or an error, never a panic, and a manifest it
// accepts is one WriteManifest writes and ReadManifest reads back
// unchanged. Seeded from the manifest TestManifestRoundTrip writes.
func FuzzClusterManifest(f *testing.F) {
	seed := filepath.Join(f.TempDir(), "cluster.json")
	if err := WriteManifest(seed, validManifest()); err != nil {
		f.Fatal(err)
	}
	written, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(written)
	f.Add([]byte(`{"format_version":1,"dim":4,"shards":[{"ordinal":0,"replicas":[" a /"]}]}`))
	f.Fuzz(func(t *testing.T, manifest []byte) {
		path := filepath.Join(t.TempDir(), "cluster.json")
		if err := os.WriteFile(path, manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := ReadManifest(path)
		if err != nil {
			return
		}
		again := filepath.Join(t.TempDir(), "again.json")
		if err := WriteManifest(again, m); err != nil {
			t.Fatalf("WriteManifest rejected the manifest ReadManifest accepted, %+v: %v", m, err)
		}
		back, err := ReadManifest(again)
		if err != nil || !reflect.DeepEqual(back, m) {
			t.Fatalf("%+v read back as %+v, %v", m, back, err)
		}
	})
}
