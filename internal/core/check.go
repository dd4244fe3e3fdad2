package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"

	"github.com/hd-index/hdindex/internal/rdbtree"
	"github.com/hd-index/hdindex/internal/vecmath"
)

// checkSampleMax bounds how many leaf entries per tree Check re-derives
// from the stored vector: every entry of an index up to this size, an
// evenly spaced sample of this many beyond.
const checkSampleMax = 1 << 16

// CheckReport is what a passing Check looked at.
type CheckReport struct {
	Vectors   uint64 // committed vectors in the store
	Clustered uint64 // how many of them sit in tree-0 key order behind ids.pg
	Purged    int    // objects compaction dropped from the trees
	Trees     int
	Verified  uint64 // leaf entries per tree re-derived from the vector behind their slot
	// KeyTies is the most leaf entries, over the trees, whose stored key
	// prefix equals the entry's before them: how many walk decisions the
	// 8-byte prefix leaves to the tie rule instead of the full key.
	KeyTies uint64
}

// Check verifies the on-disk invariants no query would notice broken —
// the index would keep answering, wrongly. It is the fsck behind `hdtool
// check`, and the model test and the crash suite run it on every
// directory they leave behind:
//
//   - meta.json commits what is open: count, generation, clustered base,
//     purged ids; the vector file is long enough for that count (asked of
//     the store, which knows its record widths) and its byte records, if
//     any, are exactly the clustered base; no tree file of another
//     generation lies around;
//   - ids.pg is a bijection of [0, clustered) with a consistent inverse;
//   - every tree is intact (separators bound their children's keys,
//     every leaf at one depth, sibling links, ascending keys, counts)
//     and holds every slot below the count exactly once, except the
//     purged ones, which it must not hold;
//   - for a sample of entries (all, up to checkSampleMax per tree) the
//     key stored in the leaf is the prefix of the Hilbert key
//     recomputed from the vector behind that entry's slot, and each
//     decoded reference distance lies within the tree's error bound ε of
//     the recomputed one.
//
// It holds off compactions and writers while it runs; searches proceed.
func (ix *Index) Check(ctx context.Context) (CheckReport, error) {
	ix.compactMu.Lock()
	defer ix.compactMu.Unlock()
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.wal == nil {
		return CheckReport{}, fmt.Errorf("core: index is closed")
	}
	count := ix.vectors.Count()
	rep := CheckReport{Vectors: count, Clustered: ix.slots.base, Trees: len(ix.trees)}
	fail := func(format string, args ...any) (CheckReport, error) {
		return rep, fmt.Errorf("core: check %s: %s", ix.dir, fmt.Sprintf(format, args...))
	}

	m, err := readMeta(ix.dir)
	if err != nil {
		return fail("%v", err)
	}
	if m.Count != count || m.Gen != ix.gen || m.Clustered != ix.slots.base {
		return fail("meta.json commits count %d, generation %d, clustered %d; open are %d, %d, %d",
			m.Count, m.Gen, m.Clustered, count, ix.gen, ix.slots.base)
	}
	if _, purged := ix.deleted.lists(nil); !slices.Equal(m.Purged, purged) {
		return fail("meta.json commits %d purged ids, %d are open", len(m.Purged), len(purged))
	}
	if err := ix.vectors.Validate(); err != nil {
		return fail("%v", err)
	}
	if b := ix.vectors.Base(); b != 0 && b != ix.slots.base {
		return fail("vectors.pg holds %d byte records, %d vectors are clustered", b, ix.slots.base)
	}
	if stale, err := ix.staleGenerations(); err != nil || len(stale) > 0 {
		return fail("stale tree file(s) %v beside the open generation %d (%v)", stale, ix.gen, err)
	}

	for slot := uint64(0); slot < ix.slots.base; slot++ {
		if slot%4096 == 0 && ctx.Err() != nil {
			return rep, ctx.Err()
		}
		id, err := ix.slots.id(slot)
		if err != nil {
			return fail("%v", err)
		}
		if back, err := ix.slots.slot(id); err != nil || back != slot {
			return fail("ids.pg: slot %d holds id %d, whose slot is %d (%v)", slot, id, back, err)
		}
	}

	d := ix.deleted
	d.mu.RLock()
	purged := make(map[uint64]struct{}, len(d.purged))
	for slot := range d.purged {
		purged[slot] = struct{}{}
	}
	d.mu.RUnlock()
	rep.Purged = len(purged)

	stride := max(1, (count+checkSampleMax-1)/checkSampleMax)
	vec := make([]float32, ix.nu)
	coords := make([]uint32, ix.eta)
	var key, prev []byte
	w := ix.treeConfig().StoredKeyLen()
	for t, tree := range ix.trees {
		seen := make([]uint64, (count+63)/64)
		eps := tree.Scale().Eps
		var pos, verified, ties uint64
		err := tree.Check(func(k []byte, e rdbtree.Entry) error {
			if pos%4096 == 0 && ctx.Err() != nil {
				return ctx.Err()
			}
			if pos > 0 && bytes.Equal(k, prev) {
				ties++
			}
			prev = append(prev[:0], k...)
			slot := e.ID
			if slot >= count {
				return fmt.Errorf("entry %d points at slot %d, the store holds %d", pos, slot, count)
			}
			if seen[slot/64]&(1<<(slot%64)) != 0 {
				return fmt.Errorf("slot %d appears twice", slot)
			}
			seen[slot/64] |= 1 << (slot % 64)
			if _, gone := purged[slot]; gone {
				return fmt.Errorf("slot %d is purged but still in the tree", slot)
			}
			if pos++; (pos-1)%stride != 0 {
				return nil
			}
			verified++
			if _, err := ix.vectors.Get(slot, vec); err != nil {
				return err
			}
			ix.quants[t].Coords(coords, vec[t*ix.eta:(t+1)*ix.eta])
			if key = ix.curves[t].Encode(key[:0], coords); !bytes.Equal(key[:w], k) {
				return fmt.Errorf("slot %d is filed under key %x, its vector encodes to %x", slot, k, key)
			}
			for r, rv := range ix.refs {
				// Equal within ε and float32 rounding: the stored distance
				// may have been computed on another CPU.
				want := vecmath.Dist(vec, rv)
				if got := float64(e.RefDists[r]); math.Abs(got-want) > eps+1e-6*math.Max(1, want) {
					return fmt.Errorf("slot %d stores distance %v to reference %d, its vector is %v away", slot, got, r, want)
				}
			}
			return nil
		})
		if err != nil {
			if ctx.Err() != nil {
				return rep, ctx.Err()
			}
			return fail("tree %d: %v", t, err)
		}
		if want := count - uint64(len(purged)); pos != want {
			for slot := uint64(0); slot < count; slot++ {
				if _, gone := purged[slot]; !gone && seen[slot/64]&(1<<(slot%64)) == 0 {
					return fail("tree %d holds %d entries, want %d: slot %d is missing", t, pos, want, slot)
				}
			}
		}
		rep.Verified, rep.KeyTies = verified, max(rep.KeyTies, ties)
	}
	return rep, nil
}
