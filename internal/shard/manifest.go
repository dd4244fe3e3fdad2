// Package shard is the on-disk shard layout and the merge rule that
// the in-process index (package hdindex) and the cluster coordinator
// share. An N-shard index is N independent HD-Indexes (each a core.Index
// in its own subdirectory), described by a manifest.json at the layout
// root:
//
//	dir/
//	  manifest.json     {"format_version":1,"shards":4,"dim":128,...}
//	  shard-00/         a complete core.Index (meta.json, tree_*.pg, ...)
//	  shard-01/
//	  shard-02/
//	  shard-03/
//
// A directory without a manifest.json that holds a core.Index directly
// is the other layout: it opens as a single shard.
//
// Vectors are striped round-robin, so global id g lives in shard g mod N
// at local id g div N (GlobalID). The striping keeps shard sizes within
// one vector of each other and the global id space dense and append-only,
// exactly like the single-index layout's. Each shard carries its own
// reference objects, RDB-trees, and deletion marks, so every durability
// property of core.Index holds per shard — and therefore for the whole
// layout. A query's per-shard top-k answers fold into the global answer
// through Merge.
package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/hd-index/hdindex/internal/atomicfile"
)

// ManifestFile is the layout descriptor's file name; its presence is
// what distinguishes a sharded layout from a bare single-index
// directory (which has meta.json at its root instead).
const ManifestFile = "manifest.json"

// FormatVersion is the manifest schema version written by this package.
const FormatVersion = 1

// Manifest describes a sharded on-disk layout.
type Manifest struct {
	FormatVersion int `json:"format_version"`
	Shards        int `json:"shards"`
	Dim           int `json:"dim"`
	// UUID identifies this build: one random identifier shared by the
	// layout and the identity stamp in every shard subdirectory, so a
	// cluster coordinator can prove an endpoint serves a shard of THIS
	// build. Empty on manifests written before identities existed —
	// readers must treat absence as "unverifiable", not as a mismatch.
	UUID string `json:"uuid,omitempty"`
	// CreatedUnix is the build time in Unix seconds — informational
	// metadata for tooling (hdtool info), not consulted by Open.
	CreatedUnix int64 `json:"created_unix"`
}

// Dir returns the subdirectory of shard s under root.
func Dir(root string, s int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%02d", s))
}

// IsSharded reports whether dir holds a manifest-backed sharded layout.
func IsSharded(dir string) bool {
	fi, err := os.Stat(filepath.Join(dir, ManifestFile))
	return err == nil && fi.Mode().IsRegular()
}

// ClearLayout removes the sharded layout's artifacts under dir: the
// manifest first, then every shard subdirectory. Every build calls it
// before touching any file — a bare build replacing a sharded layout
// included — so the old commit point is invalidated first (a crash
// mid-rebuild leaves a directory Open rejects rather than a stale
// manifest silently serving the previous dataset) and nothing of the
// old layout survives to be served or leak disk. Missing pieces (or a
// missing dir) are fine.
func ClearLayout(dir string) error {
	if err := os.Remove(filepath.Join(dir, ManifestFile)); err != nil && !os.IsNotExist(err) {
		return err
	}
	// Glob rather than counting up from shard-00: a gap in the numbering
	// (say, a crash partway through a previous ClearLayout) must not
	// strand the stale dirs behind it.
	matches, err := filepath.Glob(filepath.Join(dir, "shard-*"))
	if err != nil {
		return err
	}
	for _, p := range matches {
		if err := os.RemoveAll(p); err != nil {
			return err
		}
	}
	return nil
}

// ReadManifest loads and validates dir's manifest.
func ReadManifest(dir string) (*Manifest, error) {
	buf, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return nil, fmt.Errorf("shard: read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return nil, fmt.Errorf("shard: parse manifest: %w", err)
	}
	if m.FormatVersion != FormatVersion {
		return nil, fmt.Errorf("shard: manifest format version %d, this build reads %d", m.FormatVersion, FormatVersion)
	}
	if m.Shards < 1 {
		return nil, fmt.Errorf("shard: manifest declares %d shards", m.Shards)
	}
	if m.Dim < 1 {
		return nil, fmt.Errorf("shard: manifest declares dimensionality %d", m.Dim)
	}
	return &m, nil
}

// WriteManifest persists m atomically (the same crash discipline as
// core's meta.json). The manifest is the layout's commit point: Open
// refuses a directory without one, so a build that dies mid-way leaves
// no half-layout that looks complete.
func WriteManifest(dir string, m *Manifest) error {
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return atomicfile.WriteFile(dir, ManifestFile, buf)
}
