package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"github.com/hd-index/hdindex/internal/atomicfile"
	"github.com/hd-index/hdindex/internal/wal"
)

// §3.6: "deletions can be handled by simply marking the object as
// 'deleted' and not returning it as an answer." Marks are made durable
// the same way inserts are — a WAL record acknowledged through the
// group commit — and consulted during the exact-refinement step, so no
// tree surgery happens on the request path. Compaction is where the
// physical reclaim lives: it drops marked entries from the rebuilt
// trees and moves their marks into the purged set, persisted in the
// side file (deleted.bin) together with the live marks.

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

// deleteSet holds the deletion marks. Each set is keyed by slot — what a
// refinement candidate is, so a deleted one is skipped before its page
// is fetched — and maps to the id, which is what deleted.bin and the WAL
// record: the slot keys are an in-memory mirror, rebuilt through ids.pg
// when the marks are loaded or replayed.
type deleteSet struct {
	mu  sync.RWMutex
	ids map[uint64]uint64 // slot → id
	// purged holds the objects whose marked deletion compaction made
	// physical: their tree entries were dropped during a rebuild, so the
	// mark is permanent. has() covers both sets; Undelete refuses purged
	// ids.
	purged map[uint64]uint64
	// n is len(ids)+len(purged), readable without mu: an index nothing
	// was ever deleted from answers has() with one atomic load.
	n atomic.Int64
	// saveMu serialises deleted.bin writers (compaction's reclaim,
	// Open's prune, Flush) so a stale snapshot can never overwrite a
	// newer one. It is separate from Index.mu because the save also
	// runs outside the index lock.
	saveMu sync.Mutex
}

func newDeleteSet() *deleteSet {
	return &deleteSet{ids: make(map[uint64]uint64), purged: make(map[uint64]uint64)}
}

// has is on the search hot path — once per refinement candidate — and
// may run beside an unmark: a Delete whose group commit failed undoes its
// mark outside the index lock.
func (d *deleteSet) has(slot uint64) bool {
	if d.n.Load() == 0 {
		return false
	}
	marked, purged := d.state(slot)
	return marked || purged
}

// state reports whether slot carries a liftable mark or a permanent one.
func (d *deleteSet) state(slot uint64) (marked, purged bool) {
	d.mu.RLock()
	_, marked = d.ids[slot]
	_, purged = d.purged[slot]
	d.mu.RUnlock()
	return marked, purged
}

func (d *deleteSet) len() int { return int(d.n.Load()) }

// update runs fn on the sets under the write lock and republishes n.
func (d *deleteSet) update(fn func()) {
	d.mu.Lock()
	fn()
	d.n.Store(int64(len(d.ids) + len(d.purged)))
	d.mu.Unlock()
}

// mark adds a deletion mark unless the object is already purged (a
// purged object is permanently deleted; WAL replay may legitimately
// re-deliver its delete record after a crash between deleted.bin and the
// WAL truncation).
func (d *deleteSet) mark(slot, id uint64) {
	d.update(func() {
		if _, gone := d.purged[slot]; !gone {
			d.ids[slot] = id
		}
	})
}

func (d *deleteSet) unmark(slot uint64) {
	d.update(func() { delete(d.ids, slot) })
}

// marksBelow snapshots the marked (not purged) objects with ids under
// limit, by slot — the set a compaction covering ids [0, limit) will
// reclaim, keyed the way the tree entries it drops are.
func (d *deleteSet) marksBelow(limit uint64) map[uint64]uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make(map[uint64]uint64)
	for slot, id := range d.ids {
		if id < limit {
			out[slot] = id
		}
	}
	return out
}

// purge moves a marksBelow snapshot from the mark set to the purged set.
// Objects unmarked in the window since the snapshot stay unmarked (their
// Undelete won) but still purge: their tree entries are gone either way.
func (d *deleteSet) purge(drop map[uint64]uint64) {
	if len(drop) == 0 {
		return
	}
	d.update(func() {
		for slot, id := range drop {
			delete(d.ids, slot)
			d.purged[slot] = id
		}
	})
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
		marked, gone := d.state(slot)
		if gone {
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

// saveDeleteSet snapshots and writes the mark file (v2 layout: magic,
// marks, purged ids — ids, not slots) under saveMu, which serialises
// writers so a stale snapshot can never overwrite a newer one.
func (ix *Index) saveDeleteSet() error {
	d := ix.deleted
	d.saveMu.Lock()
	defer d.saveMu.Unlock()
	d.mu.RLock()
	buf := binary.BigEndian.AppendUint64(make([]byte, 0, 8+8+8*len(d.ids)+8+8*len(d.purged)), deletedMagicV2)
	for _, section := range []map[uint64]uint64{d.ids, d.purged} {
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(section)))
		for _, id := range section {
			buf = binary.BigEndian.AppendUint64(buf, id)
		}
	}
	d.mu.RUnlock()
	// Atomic replace: a crash at any point leaves either the old
	// complete file or the new complete file, never a torn deleted.bin
	// that would fail loadDeleteSet and brick Open.
	return atomicfile.WriteFile(ix.dir, deletedFile, buf)
}

// loadDeleteSet reads deleted.bin (either layout) into memory, finding
// each id's slot. It does not prune: stale marks can only be judged
// against the total id space, which Open knows only after the WAL replay
// — pruneDeleteMarks runs then.
func (ix *Index) loadDeleteSet() error {
	buf, err := os.ReadFile(filepath.Join(ix.dir, deletedFile))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	if len(buf) < 8 {
		return fmt.Errorf("core: corrupt %s", deletedFile)
	}
	// One section is a count then that many ids. The count is checked by
	// division: 8+8*n overflows for a corrupt n.
	rest := buf
	readSection := func(into map[uint64]uint64) error {
		if len(rest) < 8 {
			return fmt.Errorf("core: truncated %s", deletedFile)
		}
		n := binary.BigEndian.Uint64(rest)
		rest = rest[8:]
		if n > uint64(len(rest))/8 {
			return fmt.Errorf("core: truncated %s", deletedFile)
		}
		for i := uint64(0); i < n; i++ {
			id := binary.BigEndian.Uint64(rest[8*i:])
			slot, err := ix.slots.slot(id)
			if err != nil {
				return err
			}
			into[slot] = id
		}
		rest = rest[8*n:]
		return nil
	}
	d := ix.deleted
	d.update(func() {
		// v1 layout (pre-WAL indexes): the marks section alone.
		if binary.BigEndian.Uint64(buf) != deletedMagicV2 {
			err = readSection(d.ids)
			return
		}
		rest = buf[8:]
		if err = readSection(d.ids); err == nil {
			err = readSection(d.purged)
		}
	})
	return err
}

// pruneDeleteMarks drops marks for ids beyond the replayed id space: a
// legacy index whose insert never flushed before a crash but was
// deleted in the same window persists the mark without the vector. The
// id will be reassigned to a future insert, which must not be born
// deleted — rewrite the file so the stale mark cannot outlive this
// Open. Runs after WAL replay, when the total id space (committed +
// memtable) is known.
func (ix *Index) pruneDeleteMarks() error {
	total := ix.vectors.Count() + uint64(len(ix.mem))
	d := ix.deleted
	pruned := false
	d.update(func() {
		for _, section := range []map[uint64]uint64{d.ids, d.purged} {
			for slot, id := range section {
				if id >= total {
					delete(section, slot)
					pruned = true
				}
			}
		}
	})
	if pruned {
		return ix.saveDeleteSet()
	}
	return nil
}
