package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

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

type deleteSet struct {
	mu  sync.RWMutex
	ids map[uint64]struct{}
	// purged holds ids whose marked deletion compaction made physical:
	// their tree entries were dropped during a rebuild, so the mark is
	// permanent. has() covers both sets; Undelete refuses purged ids.
	purged map[uint64]struct{}
	// saveMu serialises deleted.bin writers (compaction's reclaim,
	// Open's prune, Flush) so a stale snapshot can never overwrite a
	// newer one. It is separate from Index.mu because the save also
	// runs outside the index lock.
	saveMu sync.Mutex
}

// has is on the search hot path; Build and Open always initialise the
// set, so no nil guard is needed.
func (d *deleteSet) has(id uint64) bool {
	d.mu.RLock()
	_, ok := d.ids[id]
	if !ok {
		_, ok = d.purged[id]
	}
	d.mu.RUnlock()
	return ok
}

func (d *deleteSet) len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.ids) + len(d.purged)
}

// mark adds a deletion mark unless the id is already purged (a purged
// id is permanently deleted; WAL replay may legitimately re-deliver
// its delete record after a crash between deleted.bin and the WAL
// truncation).
func (d *deleteSet) mark(id uint64) {
	d.mu.Lock()
	if _, gone := d.purged[id]; !gone {
		d.ids[id] = struct{}{}
	}
	d.mu.Unlock()
}

func (d *deleteSet) unmark(id uint64) {
	d.mu.Lock()
	delete(d.ids, id)
	d.mu.Unlock()
}

// marksBelow snapshots the marked (not purged) ids under limit — the
// set a compaction covering ids [0, limit) will reclaim.
func (d *deleteSet) marksBelow(limit uint64) map[uint64]struct{} {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make(map[uint64]struct{})
	for id := range d.ids {
		if id < limit {
			out[id] = struct{}{}
		}
	}
	return out
}

// purge moves ids from the mark set to the purged set. Ids unmarked in
// the window since the snapshot stay unmarked (their Undelete won) but
// still purge: their tree entries are gone either way.
func (d *deleteSet) purge(ids map[uint64]struct{}) {
	if len(ids) == 0 {
		return
	}
	d.mu.Lock()
	for id := range ids {
		delete(d.ids, id)
		d.purged[id] = struct{}{}
	}
	d.mu.Unlock()
}

// Delete marks object id as deleted; it will no longer be returned by
// searches. The mark is durable when Delete returns — a WAL record
// acknowledged through the same group commit as inserts (logged).
// Deleting an unknown id is an error; deleting twice (or deleting a
// purged id) is a no-op.
func (ix *Index) Delete(id uint64) error {
	d := ix.deleted
	return ix.logged(func(total uint64) (*wal.Record, error) {
		if id >= total {
			return nil, fmt.Errorf("%w: delete of id %d (have %d)", ErrUnknownID, id, total)
		}
		if d.has(id) {
			return nil, nil // already deleted (marked or purged); already durable
		}
		return &wal.Record{Op: wal.OpDelete, ID: id}, nil
	}, func(int64) { d.mark(id) }, func() { d.unmark(id) })
}

// Undelete removes the deletion mark from id. Undeleting an unmarked
// (but known) id is a no-op; an unknown id is an error; an id whose
// deletion compaction already reclaimed is ErrPurged — its tree
// entries no longer exist, so the object cannot come back.
func (ix *Index) Undelete(id uint64) error {
	d := ix.deleted
	return ix.logged(func(total uint64) (*wal.Record, error) {
		if id >= total {
			return nil, fmt.Errorf("%w: undelete of id %d (have %d)", ErrUnknownID, id, total)
		}
		d.mu.RLock()
		_, gone := d.purged[id]
		_, marked := d.ids[id]
		d.mu.RUnlock()
		if gone {
			return nil, fmt.Errorf("%w: undelete of id %d", ErrPurged, id)
		}
		if !marked {
			return nil, nil
		}
		return &wal.Record{Op: wal.OpUndelete, ID: id}, nil
	}, func(int64) { d.unmark(id) }, func() { d.mark(id) })
}

// DeletedCount returns the number of deleted objects (marked plus
// purged).
func (ix *Index) DeletedCount() int { return ix.deleted.len() }

func newDeleteSet() *deleteSet {
	return &deleteSet{ids: make(map[uint64]struct{}), purged: make(map[uint64]struct{})}
}

// saveDeleteSet snapshots and writes the mark file (v2 layout: magic,
// marks, purged ids) under saveMu, which serialises writers so a stale
// snapshot can never overwrite a newer one.
func (ix *Index) saveDeleteSet() error {
	d := ix.deleted
	d.saveMu.Lock()
	defer d.saveMu.Unlock()
	d.mu.RLock()
	buf := binary.BigEndian.AppendUint64(make([]byte, 0, 8+8+8*len(d.ids)+8+8*len(d.purged)), deletedMagicV2)
	for _, section := range []map[uint64]struct{}{d.ids, d.purged} {
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(section)))
		for id := range section {
			buf = binary.BigEndian.AppendUint64(buf, id)
		}
	}
	d.mu.RUnlock()
	// Atomic replace: a crash at any point leaves either the old
	// complete file or the new complete file, never a torn deleted.bin
	// that would fail loadDeleteSet and brick Open.
	return atomicfile.WriteFile(ix.dir, deletedFile, buf)
}

// loadDeleteSet reads deleted.bin (either layout) into memory. It does
// not prune: stale marks can only be judged against the total id space,
// which Open knows only after the WAL replay — pruneDeleteMarks runs
// then.
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
	readSection := func(into map[uint64]struct{}) error {
		if len(rest) < 8 {
			return fmt.Errorf("core: truncated %s", deletedFile)
		}
		n := binary.BigEndian.Uint64(rest)
		rest = rest[8:]
		if n > uint64(len(rest))/8 {
			return fmt.Errorf("core: truncated %s", deletedFile)
		}
		for i := uint64(0); i < n; i++ {
			into[binary.BigEndian.Uint64(rest[8*i:])] = struct{}{}
		}
		rest = rest[8*n:]
		return nil
	}
	// v1 layout (pre-WAL indexes): the marks section alone.
	if binary.BigEndian.Uint64(buf) != deletedMagicV2 {
		return readSection(ix.deleted.ids)
	}
	rest = buf[8:]
	if err := readSection(ix.deleted.ids); err != nil {
		return err
	}
	return readSection(ix.deleted.purged)
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
	d.mu.Lock()
	for id := range d.ids {
		if id >= total {
			delete(d.ids, id)
			pruned = true
		}
	}
	for id := range d.purged {
		if id >= total {
			delete(d.purged, id)
			pruned = true
		}
	}
	d.mu.Unlock()
	if pruned {
		return ix.saveDeleteSet()
	}
	return nil
}
