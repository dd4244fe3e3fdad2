package slo

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzFrontier feeds ReadFrontier arbitrary files: it answers with an
// error or a frontier, never a panic, and a frontier it accepts is
// written by WriteFrontier and read back equal. Seeded from the files
// slo_test.go writes: the golden frontier and the garbage one.
func FuzzFrontier(f *testing.F) {
	path := filepath.Join(f.TempDir(), "frontier.json")
	golden := testFrontier()
	golden.Points[0].MAP = 0.77
	golden.Points[0].CandidatesPerQuery = 123.5
	if err := WriteFrontier(path, golden); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte("{not json"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		in, out := filepath.Join(dir, "in.json"), filepath.Join(dir, "out.json")
		if err := os.WriteFile(in, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		fr, err := ReadFrontier(in)
		if err != nil {
			return
		}
		if err := WriteFrontier(out, fr); err != nil {
			t.Fatalf("an accepted frontier does not write: %v", err)
		}
		back, err := ReadFrontier(out)
		if err != nil {
			t.Fatalf("a written frontier does not read: %v", err)
		}
		if back.FormatVersion != fr.FormatVersion || back.Dataset != fr.Dataset || back.K != fr.K || !slices.Equal(back.Points, fr.Points) {
			t.Fatalf("round trip changed the frontier: %+v, then %+v", fr, back)
		}
	})
}

// FuzzTierConfig feeds ReadTierConfig arbitrary files: it answers with
// an error or a config, never a panic, and a config it accepts
// marshals to JSON that decodes to an equal config Validate accepts.
// An empty tenant map and an absent one are the same config. Seeded
// from the files slo_test.go writes: the valid config and the ones it
// must refuse.
func FuzzTierConfig(f *testing.F) {
	f.Add([]byte(tierConfigJSON))
	for _, bad := range badTierConfigs {
		f.Add([]byte(bad))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "tiers.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := ReadTierConfig(path)
		if err != nil {
			return
		}
		enc, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("an accepted config does not marshal: %v", err)
		}
		var back TierConfig
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("a marshalled config does not decode: %v", err)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("a marshalled config does not validate: %v", err)
		}
		if back.DefaultTier != c.DefaultTier || !maps.Equal(back.Tiers, c.Tiers) || !maps.Equal(back.Tenants, c.Tenants) {
			t.Fatalf("round trip changed the config: %+v, then %+v", c, back)
		}
	})
}
