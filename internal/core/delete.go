package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/hd-index/hdindex/internal/rdbtree"
	"github.com/hd-index/hdindex/internal/wal"
)

// §3.6: "deletions can be handled by simply marking the object as
// 'deleted' and not returning it as an answer." Marks are made durable
// the same way inserts are — a WAL record acknowledged through the
// group commit — and consulted during the exact-refinement step, so no
// tree surgery happens on the request path. Compaction is where the
// physical reclaim lives: it drops marked entries from the rebuilt
// trees and makes their marks purged (permanent), and its meta.json
// commit records the marked and the purged ids.

// deletedFile held the marks of directories written before meta.json
// did: Open merges it into meta.json once and removes it.
const deletedFile = "deleted.bin"

// deletedMagicV2 tags the two-section deleted.bin layout (marks +
// purged ids). It cannot collide with a v1 file, whose first 8 bytes
// are a count bounded by the file's own length.
const deletedMagicV2 = 0xFFFFFFFF00000002

// ErrUnknownID reports a Delete of an id the index has never assigned.
var ErrUnknownID = errors.New("core: unknown id")

// ErrPurged reports an Undelete of an id whose deletion was made
// physical by compaction: its tree entries are gone, so the mark can
// no longer be lifted.
var ErrPurged = errors.New("core: id was deleted and reclaimed by compaction")

// deleteSet holds the deletion marks, keyed by slot — what a refinement
// candidate is, so a deleted one is skipped before its page is fetched.
// Each mark carries the id, which is what meta.json and the WAL record:
// the slot keys are an in-memory mirror, rebuilt through ids.pg when the
// marks are loaded or replayed.
type deleteSet struct {
	mu    sync.RWMutex
	marks map[uint64]mark // slot → mark
	// n is len(marks), readable without mu: an index nothing was ever
	// deleted from answers has() with one atomic load.
	n atomic.Int64
}

// mark is one deleted object. A purged mark is one whose deletion
// compaction made physical: its tree entries were dropped during a
// rebuild, so the mark is permanent and Undelete refuses it.
type mark struct {
	id     uint64
	purged bool
}

func newDeleteSet() *deleteSet {
	return &deleteSet{marks: make(map[uint64]mark)}
}

// has is on the search hot path — once per refinement candidate — and
// may run beside an unmark: a Delete whose group commit failed undoes its
// mark outside the index lock.
func (d *deleteSet) has(slot uint64) bool {
	if d.n.Load() == 0 {
		return false
	}
	_, ok := d.get(slot)
	return ok
}

// get returns slot's mark, if it carries one.
func (d *deleteSet) get(slot uint64) (mark, bool) {
	d.mu.RLock()
	m, ok := d.marks[slot]
	d.mu.RUnlock()
	return m, ok
}

func (d *deleteSet) len() int { return int(d.n.Load()) }

// update runs fn on the marks under the write lock and republishes n.
func (d *deleteSet) update(fn func()) {
	d.mu.Lock()
	fn()
	d.n.Store(int64(len(d.marks)))
	d.mu.Unlock()
}

// setLocked marks slot, keeping a purged mark as it is (a purged object
// is permanently deleted; WAL replay may legitimately re-deliver its
// delete record after a crash between the meta.json commit and the WAL
// truncation). d.mu must be held.
func (d *deleteSet) setLocked(slot, id uint64) {
	if !d.marks[slot].purged {
		d.marks[slot] = mark{id: id}
	}
}

func (d *deleteSet) mark(slot, id uint64) {
	d.update(func() { d.setLocked(slot, id) })
}

// unmark lifts slot's mark unless it is purged.
func (d *deleteSet) unmark(slot uint64) {
	d.update(func() {
		if !d.marks[slot].purged {
			delete(d.marks, slot)
		}
	})
}

// marksBelow snapshots the liftable marks with ids under limit, by slot
// — the set a compaction covering ids [0, limit) will reclaim, keyed the
// way the tree entries it drops are.
func (d *deleteSet) marksBelow(limit uint64) map[uint64]uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make(map[uint64]uint64)
	for slot, m := range d.marks {
		if !m.purged && m.id < limit {
			out[slot] = m.id
		}
	}
	return out
}

// purge makes a marksBelow snapshot's marks permanent. Objects unmarked
// in the window since the snapshot stay unmarked (their Undelete won)
// but still purge: their tree entries are gone either way.
func (d *deleteSet) purge(drop map[uint64]uint64) {
	if len(drop) == 0 {
		return
	}
	d.update(func() {
		for slot, id := range drop {
			d.marks[slot] = mark{id: id, purged: true}
		}
	})
}

// lists returns the marked and the purged ids, each ascending, as
// meta.json records them, with drop's marks already purged: the sets a
// compaction commit is about to apply.
func (d *deleteSet) lists(drop map[uint64]uint64) (marked, purged []uint64) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for slot, m := range d.marks {
		if m.purged {
			purged = append(purged, m.id)
		} else if _, gone := drop[slot]; !gone {
			marked = append(marked, m.id)
		}
	}
	for _, id := range drop {
		purged = append(purged, id)
	}
	slices.Sort(marked)
	slices.Sort(purged)
	return marked, purged
}

// Delete marks object id as deleted; it will no longer be returned by
// searches. The mark is durable when Delete returns — a WAL record
// acknowledged through the same group commit as inserts (logged).
// Deleting an unknown id is an error; deleting twice (or deleting a
// purged id) is a no-op.
func (ix *Index) Delete(id uint64) error {
	d := ix.deleted
	var slot uint64
	return ix.logged(func(total uint64) (*wal.Record, error) {
		if id >= total {
			return nil, fmt.Errorf("%w: delete of id %d (have %d)", ErrUnknownID, id, total)
		}
		var err error
		if slot, err = ix.slots.slot(id); err != nil {
			return nil, err
		}
		if d.has(slot) {
			return nil, nil // already deleted (marked or purged); already durable
		}
		return &wal.Record{Op: wal.OpDelete, ID: id}, nil
	}, func(int64) { d.mark(slot, id) }, func() { d.unmark(slot) })
}

// Undelete removes the deletion mark from id. Undeleting an unmarked
// (but known) id is a no-op; an unknown id is an error; an id whose
// deletion compaction already reclaimed is ErrPurged — its tree
// entries no longer exist, so the object cannot come back.
func (ix *Index) Undelete(id uint64) error {
	d := ix.deleted
	var slot uint64
	return ix.logged(func(total uint64) (*wal.Record, error) {
		if id >= total {
			return nil, fmt.Errorf("%w: undelete of id %d (have %d)", ErrUnknownID, id, total)
		}
		var err error
		if slot, err = ix.slots.slot(id); err != nil {
			return nil, err
		}
		m, marked := d.get(slot)
		if m.purged {
			return nil, fmt.Errorf("%w: undelete of id %d", ErrPurged, id)
		}
		if !marked {
			return nil, nil
		}
		return &wal.Record{Op: wal.OpUndelete, ID: id}, nil
	}, func(int64) { d.unmark(slot) }, func() { d.mark(slot, id) })
}

// DeletedCount returns the number of deleted objects (marked plus
// purged).
func (ix *Index) DeletedCount() int { return ix.deleted.len() }

// addMarks adds marked and purged ids to the delete set, finding each
// one's slot; an id past the slot space, or one the slot map cannot
// place, is an error. A purged id's mark is purged whatever else lists
// it.
func (ix *Index) addMarks(marked, purged []uint64) error {
	d := ix.deleted
	add := func(ids []uint64, purged bool) error {
		for _, id := range ids {
			if id >= slotSpace {
				return fmt.Errorf("%w: deleted id %d, %d slots", rdbtree.ErrIDRange, id, slotSpace)
			}
			slot, err := ix.slots.slot(id)
			if err != nil {
				return err
			}
			if purged {
				d.marks[slot] = mark{id: id, purged: true}
			} else {
				d.setLocked(slot, id)
			}
		}
		return nil
	}
	var err error
	d.update(func() {
		if err = add(marked, false); err == nil {
			err = add(purged, true)
		}
	})
	return err
}

// loadDeleteSet adds the marks of an older directory's deleted.bin
// (either layout) and reports whether there was one. It does not prune:
// stale marks can only be judged against the total id space, which Open
// knows only after the WAL replay — pruneDeleteMarks runs then.
func (ix *Index) loadDeleteSet() (bool, error) {
	buf, err := os.ReadFile(filepath.Join(ix.dir, deletedFile))
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return true, err
	}
	if len(buf) < 8 {
		return true, fmt.Errorf("core: corrupt %s", deletedFile)
	}
	// A v2 file is the magic, the marks and the purged ids; a v1 file
	// (pre-WAL indexes) the marks alone. A section is a count then that
	// many ids, the count checked by division: 8+8*n overflows for a
	// corrupt n.
	rest, sections := buf, 1
	if binary.BigEndian.Uint64(buf) == deletedMagicV2 {
		rest, sections = buf[8:], 2
	}
	var ids [2][]uint64
	for i := range sections {
		if len(rest) < 8 || binary.BigEndian.Uint64(rest) > uint64(len(rest)-8)/8 {
			return true, fmt.Errorf("core: truncated %s", deletedFile)
		}
		n := binary.BigEndian.Uint64(rest)
		for rest = rest[8:]; n > 0; n, rest = n-1, rest[8:] {
			ids[i] = append(ids[i], binary.BigEndian.Uint64(rest))
		}
	}
	return true, ix.addMarks(ids[0], ids[1])
}

// pruneDeleteMarks drops marks for ids beyond the replayed id space: a
// legacy index whose insert never flushed before a crash but was
// deleted in the same window persists the mark without the vector. The
// id will be reassigned to a future insert, which must not be born
// deleted, so Open commits the prune when this reports one. Runs after
// WAL replay, when the total id space (committed + memtable) is known.
func (ix *Index) pruneDeleteMarks() bool {
	total := ix.vectors.Count() + uint64(len(ix.mem))
	d := ix.deleted
	pruned := false
	d.update(func() {
		for slot, m := range d.marks {
			if m.id >= total {
				delete(d.marks, slot)
				pruned = true
			}
		}
	})
	return pruned
}
