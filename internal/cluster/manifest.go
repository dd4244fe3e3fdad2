// Package cluster lifts the in-process scatter-gather of internal/shard
// across machines: a coordinator serves the same /search and
// /searchbatch JSON API by fanning each query out to N shard servers
// (each a stock hdserve holding one shard directory of a sharded
// build), merging the per-shard top-k through internal/topk, and
// mapping each shard's local ids back to global ids — so an N-node
// cluster answers bit-identically to the in-process N-shard index.
//
// Robustness is the point of the package. Each sub-query retries with
// capped exponential backoff plus jitter, failing over along the
// shard's ordered replica list; a 503 shed (Retry-After present) fails
// over immediately without sleeping, since the replica is alive and
// the next one may be idle. Slow replicas are hedged: once a sub-query
// outlives the windowed p99 of recent sub-query latency, the same
// request is fired at the next replica and the first answer wins, the
// loser cancelled. An active health checker drives every replica
// through healthy→suspect→down off its /healthz, and verifies the
// shard identity stamp (manifest UUID + ordinal) so a miswired
// endpoint is rejected instead of silently merging wrong-shard
// results. When a shard has no reachable replica, the completeness
// policy decides: require_full requests fail with 503
// "shard_unavailable", everything else gets the merged partial result
// with the missing ordinals echoed in stats.partial_shards.
package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"unicode"

	"github.com/hd-index/hdindex/internal/atomicfile"
)

// ManifestFormatVersion is the cluster manifest schema version.
const ManifestFormatVersion = 1

// Manifest maps every shard of a sharded build to its ordered replica
// endpoints. It is the cluster's deployment descriptor, written by the
// operator (or a test harness) next to nothing in particular — the
// coordinator only needs the file, not the index directories.
type Manifest struct {
	FormatVersion int `json:"format_version"`
	// UUID is the sharded build's manifest UUID. When set, every
	// endpoint must present the same identity stamp or be rejected;
	// empty skips the UUID check (pre-identity builds).
	UUID string `json:"uuid,omitempty"`
	// Dim is the indexed dimensionality, validated against every
	// endpoint and against incoming queries.
	Dim int `json:"dim"`
	// Shards lists every shard exactly once, ordinal-ordered.
	Shards []ShardSpec `json:"shards"`
}

// ShardSpec is one shard's row: its ordinal in the layout and the
// ordered list of servers holding a replica of it (preferred first).
type ShardSpec struct {
	Ordinal int `json:"ordinal"`
	// Replicas are base URLs ("http://10.0.0.7:8080"); a bare
	// host:port is promoted to http://.
	Replicas []string `json:"replicas"`
}

// Validate checks structural invariants: ordinals 0..N-1 exactly once,
// at least one replica per shard, a positive dimensionality.
func (m *Manifest) Validate() error {
	if m.FormatVersion != ManifestFormatVersion {
		return fmt.Errorf("cluster: manifest format version %d, this build reads %d", m.FormatVersion, ManifestFormatVersion)
	}
	if m.Dim < 1 {
		return fmt.Errorf("cluster: manifest declares dimensionality %d", m.Dim)
	}
	if len(m.Shards) == 0 {
		return fmt.Errorf("cluster: manifest declares no shards")
	}
	seen := make(map[int]bool, len(m.Shards))
	for i, s := range m.Shards {
		if s.Ordinal != i {
			return fmt.Errorf("cluster: shard at position %d has ordinal %d (rows must be ordinal-ordered 0..N-1)", i, s.Ordinal)
		}
		if seen[s.Ordinal] {
			return fmt.Errorf("cluster: duplicate shard ordinal %d", s.Ordinal)
		}
		seen[s.Ordinal] = true
		if len(s.Replicas) == 0 {
			return fmt.Errorf("cluster: shard %d has no replicas", s.Ordinal)
		}
		for j, r := range s.Replicas {
			if trimURL(r) == "" {
				return fmt.Errorf("cluster: shard %d replica %d is empty", s.Ordinal, j)
			}
		}
	}
	return nil
}

// normalizeURL promotes a bare host:port to an http:// base URL and
// strips surrounding space and any trailing slash; a second pass
// changes nothing, so a manifest reads back as it was written.
func normalizeURL(u string) string {
	u = trimURL(u)
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	return u
}

// trimURL strips surrounding space and trailing slashes, mixed or not.
func trimURL(u string) string {
	return strings.TrimRightFunc(strings.TrimSpace(u), func(r rune) bool { return r == '/' || unicode.IsSpace(r) })
}

// ReadManifest loads and validates the cluster manifest at path.
func ReadManifest(path string) (*Manifest, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return nil, fmt.Errorf("cluster: parse manifest %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	for i := range m.Shards {
		for j := range m.Shards[i].Replicas {
			m.Shards[i].Replicas[j] = normalizeURL(m.Shards[i].Replicas[j])
		}
	}
	return &m, nil
}

// WriteManifest persists m at path atomically (write, fsync, rename —
// the same crash discipline as every other commit point in the
// system), validating first so a bad manifest never reaches disk.
func WriteManifest(path string, m *Manifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return atomicfile.WriteFile(filepath.Dir(path), filepath.Base(path), buf)
}
