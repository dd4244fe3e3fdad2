package shard

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/hd-index/hdindex/internal/atomicfile"
)

// IdentityFile is the per-shard identity stamp written into every shard
// subdirectory at build time. A shard directory served standalone (one
// hdserve per shard, the distributed deployment) reports this identity
// on /healthz and /stats, and a cluster coordinator checks it at
// startup — so a miswired endpoint (wrong shard, or a shard of a
// different build) is rejected before its results can be merged.
const IdentityFile = "identity.json"

// Identity names which shard of which sharded build a directory holds.
type Identity struct {
	// ClusterUUID is the layout's manifest UUID: one random identifier
	// per sharded build, shared by all its shards and by nothing else.
	ClusterUUID string `json:"cluster_uuid"`
	// Shard is this directory's ordinal in the layout (0-based).
	Shard int `json:"shard"`
	// Shards is the layout's total shard count.
	Shards int `json:"shards"`
	// Dim is the indexed dimensionality, repeated here so an identity
	// check catches a dimension mismatch without a second request.
	Dim int `json:"dim"`
}

// NewUUID returns a fresh 128-bit random identifier in hex.
func NewUUID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on the supported platforms; if it
		// somehow does, a constant is still a valid (if weak) id and
		// beats taking the build down.
		return "00000000000000000000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// validate rejects a stamp no sharded build can have written: an
// ordinal outside [0, Shards), or a dimensionality below 1.
func (id Identity) validate() error {
	if id.Shard < 0 || id.Shard >= id.Shards || id.Dim < 1 {
		return fmt.Errorf("shard: identity names shard %d of %d at dimensionality %d", id.Shard, id.Shards, id.Dim)
	}
	return nil
}

// WriteIdentity stamps dir with id, atomically, if it is valid.
func WriteIdentity(dir string, id Identity) error {
	if err := id.validate(); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(id, "", "  ")
	if err != nil {
		return err
	}
	return atomicfile.WriteFile(dir, IdentityFile, buf)
}

// ReadIdentity loads dir's identity stamp. A directory without one —
// a bare single-index directory, or a shard built before identities
// existed — returns (nil, nil): absence is a valid state, not an error.
// A stamp that cannot exist (validate) is one.
func ReadIdentity(dir string) (*Identity, error) {
	buf, err := os.ReadFile(filepath.Join(dir, IdentityFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("shard: read identity: %w", err)
	}
	var id Identity
	if err := json.Unmarshal(buf, &id); err != nil {
		return nil, fmt.Errorf("shard: parse identity: %w", err)
	}
	if err := id.validate(); err != nil {
		return nil, fmt.Errorf("%w in %s", err, IdentityFile)
	}
	return &id, nil
}
