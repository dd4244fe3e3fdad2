package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"github.com/hd-index/hdindex/internal/pager"
	"github.com/hd-index/hdindex/internal/rdbtree"
	"github.com/hd-index/hdindex/internal/vecmath"
	"github.com/hd-index/hdindex/internal/wal"
)

// The live-ingest layer (log-structured, §3.6 turned durable): an
// insert appends one record to the write-ahead log and lands in the
// in-memory memtable; the acknowledgement rides the WAL's group
// commit, never a tree or vector-store flush. Queries brute-force the
// memtable (it is small by construction — MemtableMaxVectors bounds
// it) and merge those exact hits into the tree candidates' refinement
// heap, so acknowledged writes are immediately visible. A background
// compactor drains the memtable into the RDB-trees through the same
// flat-arena bulk load the build uses, committing the new tree
// generation with one atomic meta.json replace and truncating the WAL
// to the surviving tail.

const walFile = "wal.log"

// defaultMemtableMaxVectors is the compaction threshold when the caller
// sets none: large enough to amortise a tree rebuild over thousands of
// inserts, small enough that the per-query memtable scan (one exact
// distance per entry, early-abandoning) stays well under a single
// tree's α leaf walk.
const defaultMemtableMaxVectors = 4096

// IngestStats is a point-in-time summary of the write path, surfaced
// through /stats as the "wal" block.
type IngestStats struct {
	// MemtableVectors is the current number of acknowledged inserts not
	// yet compacted into the trees — the staleness bound is
	// MemtableVectors ≤ max(MemtableMaxVectors, burst in flight).
	MemtableVectors int `json:"memtable_vectors"`
	// WALBytes / WALRecords describe the current log file.
	WALBytes   int64 `json:"wal_bytes"`
	WALRecords int64 `json:"wal_records"`
	// WALSyncs counts fsyncs since open; inserts/fsync is the group
	// commit's batching factor.
	WALSyncs int64 `json:"wal_syncs"`
	// Replayed is the number of WAL records replayed by Open — 0 after
	// a clean shutdown, >0 after crash recovery.
	Replayed int `json:"replayed"`
	// Compactions counts completed memtable merges since open.
	Compactions uint64 `json:"compactions"`
	// LastCompactionMS / LastCompactionVectors describe the most recent
	// merge: wall-clock cost and how many memtable vectors it drained.
	LastCompactionMS      float64 `json:"last_compaction_ms"`
	LastCompactionVectors int     `json:"last_compaction_vectors"`
	// WALFailed reports the read-only state: the write-ahead log failed
	// and every write is rejected with ErrWALUnavailable while reads
	// keep serving.
	WALFailed bool `json:"wal_failed,omitempty"`
	// CompactFailures counts failed background compactions since open;
	// CompactBreaker is "open" while the retry circuit breaker is
	// holding off (the old tree generation keeps serving), "closed"
	// otherwise. LastCompactError is the most recent failure's message.
	CompactFailures  uint64 `json:"compact_failures,omitempty"`
	CompactBreaker   string `json:"compact_breaker,omitempty"`
	LastCompactError string `json:"last_compact_error,omitempty"`
}

// Add accumulates other into s (the sharded layout sums its shards;
// LastCompactionMS keeps the max, one slowest-merge figure).
func (s *IngestStats) Add(other IngestStats) {
	s.MemtableVectors += other.MemtableVectors
	s.WALBytes += other.WALBytes
	s.WALRecords += other.WALRecords
	s.WALSyncs += other.WALSyncs
	s.Replayed += other.Replayed
	s.Compactions += other.Compactions
	if other.LastCompactionMS > s.LastCompactionMS {
		s.LastCompactionMS = other.LastCompactionMS
	}
	s.LastCompactionVectors += other.LastCompactionVectors
	s.WALFailed = s.WALFailed || other.WALFailed
	s.CompactFailures += other.CompactFailures
	if other.CompactBreaker == "open" || s.CompactBreaker == "" {
		s.CompactBreaker = other.CompactBreaker
	}
	if s.LastCompactError == "" {
		s.LastCompactError = other.LastCompactError
	}
}

// IngestStats returns the write-path summary.
func (ix *Index) IngestStats() IngestStats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.ingestStatsLocked()
}

// ingestStatsLocked is IngestStats with ix.mu held.
func (ix *Index) ingestStatsLocked() IngestStats {
	st := IngestStats{
		MemtableVectors:       len(ix.mem),
		Replayed:              ix.replayed,
		Compactions:           ix.compactions,
		LastCompactionMS:      ix.lastCompactMS,
		LastCompactionVectors: ix.lastCompactN,
		WALFailed:             ix.readOnlyLocked(),
		CompactFailures:       ix.compactFailures,
		CompactBreaker:        "closed",
		LastCompactError:      ix.lastCompactErr,
	}
	if ix.compactConsecFails > 0 {
		st.CompactBreaker = "open"
	}
	if ix.wal != nil {
		ws := ix.wal.Stats()
		st.WALBytes = ws.Bytes
		st.WALRecords = ws.Records
		st.WALSyncs = ws.Syncs
	}
	return st
}

// memtableMax resolves the compaction threshold.
func (ix *Index) memtableMax() int {
	if ix.params.MemtableMaxVectors > 0 {
		return ix.params.MemtableMaxVectors
	}
	return defaultMemtableMaxVectors
}

// logged is the one mutation path: Insert, Delete and Undelete are one
// call each. Under ix.mu it rejects a closed or read-only index, asks
// pre (given the id watermark, committed + memtable) for the WAL record
// — or its precondition error, or nil for a no-op with nothing to log —
// appends it unsynced, so log order is lock order, and runs apply, the
// in-memory effect, with the record's end offset. The group-commit wait
// happens outside the lock. If that fsync fails the mutation was never
// acknowledged: undo (nil when noteWALFailure's drop of the memtable
// suffix already covers it) reverts apply, so memory matches what a
// crash-restart replay rebuilds, and the poisoned log keeps the index
// read-only.
func (ix *Index) logged(pre func(total uint64) (*wal.Record, error), apply func(off int64), undo func()) error {
	ix.mu.Lock()
	if ix.wal == nil {
		ix.mu.Unlock()
		return errors.New("core: index is closed")
	}
	if err := ix.wal.Err(); err != nil {
		err = ix.noteWALFailureLocked(err)
		ix.mu.Unlock()
		return err
	}
	rec, err := pre(ix.vectors.Count() + uint64(len(ix.mem)))
	if rec == nil {
		ix.mu.Unlock()
		return err
	}
	w := ix.wal
	off, err := w.AppendNoSync(*rec)
	if err != nil {
		if !errors.Is(err, wal.ErrClosed) {
			// The append poisoned the log (a torn page-cache write), so
			// the index is read-only; roll back before unlocking.
			err = ix.noteWALFailureLocked(err)
		}
		ix.mu.Unlock()
		return err
	}
	apply(off)
	ix.mu.Unlock()
	if err := w.WaitDurable(off); err != nil {
		if errors.Is(err, wal.ErrClosed) {
			return err
		}
		if undo != nil {
			undo()
		}
		return ix.noteWALFailure(err)
	}
	return nil
}

// Insert adds one vector through logged: the id is the watermark at
// append time (so log order matches id order) and the vector lands in
// the memtable. The id is durable and searchable when Insert returns;
// no tree page or vector-store write happens on this path. An insert
// past the 2³² slots a tree leaf can name is rdbtree.ErrIDRange.
func (ix *Index) Insert(vec []float32) (uint64, error) {
	if len(vec) != ix.nu {
		return 0, fmt.Errorf("%w: vector has %d dims, index has %d", ErrDimMismatch, len(vec), ix.nu)
	}
	for r, rv := range ix.refs { // what the trees will store; NaN fails too
		if d := float32(vecmath.Dist(vec, rv)); !(d <= math.MaxFloat32) {
			return 0, fmt.Errorf("%w: its distance to reference %d is %v", ErrBadVector, r, d)
		}
	}
	telStart := time.Now()
	cp := vecmath.Copy(vec)
	var id uint64
	var memLen int
	err := ix.logged(func(total uint64) (*wal.Record, error) {
		if total >= slotSpace {
			return nil, fmt.Errorf("%w: id %d, %d slots", rdbtree.ErrIDRange, total, slotSpace)
		}
		id = total
		return &wal.Record{Op: wal.OpInsert, ID: id, Vec: cp}, nil
	}, func(off int64) {
		ix.mem = append(ix.mem, cp)
		ix.memOff = append(ix.memOff, off)
		memLen = len(ix.mem)
	}, nil)
	if err != nil {
		return 0, err
	}
	ix.tel.ObserveInsert(time.Since(telStart))
	if memLen >= ix.memtableMax() {
		ix.wakeCompactor()
	}
	return id, nil
}

// replayRecord rebuilds the in-memory ingest state from one WAL record
// during Open. Insert records below the committed count were already
// compacted (the crash hit between the meta commit and the WAL
// truncation) and replay idempotently skips them.
func (ix *Index) replayRecord(r wal.Record) error {
	switch r.Op {
	case wal.OpInsert:
		committed := ix.vectors.Count()
		if r.ID < committed {
			return nil
		}
		if next := committed + uint64(len(ix.mem)); r.ID != next {
			return fmt.Errorf("core: wal replay: insert id %d, expected %d", r.ID, next)
		}
		if len(r.Vec) != ix.nu {
			return fmt.Errorf("core: wal replay: insert id %d has %d dims, index has %d", r.ID, len(r.Vec), ix.nu)
		}
		ix.mem = append(ix.mem, r.Vec)
		// Replayed entries came off disk, so they are durable by
		// definition; offset 0 is never past the durable watermark and
		// the WAL-failure rollback leaves them alone.
		ix.memOff = append(ix.memOff, 0)
	case wal.OpDelete, wal.OpUndelete:
		slot, err := ix.slots.slot(r.ID)
		if err != nil {
			return fmt.Errorf("core: wal replay: %w", err)
		}
		if r.Op == wal.OpUndelete {
			ix.deleted.unmark(slot)
		} else if r.ID < ix.vectors.Count()+uint64(len(ix.mem)) {
			ix.deleted.mark(slot, r.ID)
		}
	default:
		return fmt.Errorf("core: wal replay: unknown op %d", r.Op)
	}
	ix.replayed++
	return nil
}

// startCompactor launches the background merge goroutine. It wakes on
// demand: Insert crossing the memtable threshold, or the breaker's
// retry timer (queries see memtable entries either way).
func (ix *Index) startCompactor() {
	ctx, cancel := context.WithCancel(context.Background())
	ix.compactCancel = cancel
	ix.compactDone = make(chan struct{})
	ix.compactWake = make(chan struct{}, 1)
	go func() {
		defer close(ix.compactDone)
		// Circuit breaker: after a failed merge the loop backs off
		// exponentially (capped) instead of re-hitting a sick disk on
		// every insert-driven wake. Compact commits all or nothing, so
		// the WAL + memtable keep covering every acknowledged write and
		// the old tree generation keeps serving while the breaker holds.
		var nextRetry time.Time
		var retryC <-chan time.Time
		for {
			select {
			case <-ctx.Done():
				return
			case <-ix.compactWake:
			case <-retryC:
			}
			if ctx.Err() != nil {
				return
			}
			if !nextRetry.IsZero() {
				// Breaker open: ignore wakes until the retry timer —
				// unless a manual Compact (the half-open probe) already
				// closed it, in which case resume immediately.
				if ix.compactRetryDelay() > 0 && time.Now().Before(nextRetry) {
					continue
				}
				nextRetry, retryC = time.Time{}, nil
			}
			// Compact keeps the breaker books itself (it is also the
			// manual half-open probe); the loop only schedules retries.
			if err := ix.Compact(ctx); err != nil {
				if d := ix.compactRetryDelay(); d > 0 {
					nextRetry = time.Now().Add(d)
					retryC = time.After(d)
				}
			}
		}
	}()
}

func (ix *Index) wakeCompactor() {
	if ix.compactWake == nil {
		return
	}
	select {
	case ix.compactWake <- struct{}{}:
	default:
	}
}

// stopCompactor cancels the background merge and waits it out. Safe to
// call repeatedly and on an index whose compactor never started.
func (ix *Index) stopCompactor() {
	if ix.compactCancel == nil {
		return
	}
	ix.compactCancel()
	<-ix.compactDone
	ix.compactCancel = nil
}

// Compact drains the current memtable into the RDB-trees: reference
// distances and Hilbert keys for the batch, a merge of each tree's
// existing entries with the radix-sorted batch into a fresh
// tree-generation file via the flat-arena bulk load, the batch's
// records written and fsynced into vectors.pg past the committed count,
// then one commit section under the index write lock — the atomic
// meta.json replace carrying the new generation, count and delete marks
// (THE commit point), the swap in memory, WAL truncation to the
// surviving tail. A crash on either side of the meta replace recovers
// cleanly: before it, the old generation plus a full WAL replay; after
// it, the new generation with replay skipping the already-committed
// prefix.
//
// Entries of objects that carry a deletion mark are dropped from the
// rebuilt trees and their marks move to the purged set (§3.6's marks,
// physically reclaimed). Compact is a no-op on an empty memtable and
// serialises against itself, so the background compactor and manual
// calls can overlap freely.
//
// Compact also keeps the circuit-breaker books: a compaction-domain
// failure opens the breaker (noteCompactFailure), a successful drain
// closes it. Manual calls therefore double as the breaker's half-open
// probe — an operator-triggered Compact that succeeds resumes normal
// background cadence immediately.
func (ix *Index) Compact(ctx context.Context) error {
	did, err := ix.compact(ctx)
	switch {
	case err == nil:
		if did {
			ix.noteCompactOK()
		}
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// External cancel (shutdown), not a sick disk: breaker unchanged.
	case errors.Is(err, wal.ErrClosed), errors.Is(err, ErrWALUnavailable):
		// WAL failure domain: the poisoned log made the index read-only;
		// opening the compaction breaker too would misreport the cause.
	default:
		ix.noteCompactFailure(err)
	}
	return err
}

// compact is Compact's body; the bool reports whether a batch was
// actually drained (false for the empty-memtable no-op, so a vacuous
// success cannot close an open breaker).
func (ix *Index) compact(ctx context.Context) (bool, error) {
	ix.compactMu.Lock()
	defer ix.compactMu.Unlock()
	start := time.Now()

	// Snapshot the batch: the memtable is append-only between
	// compactions and vector slices are immutable after insert, so a
	// prefix copy of the slice headers is a consistent snapshot.
	ix.mu.RLock()
	n := len(ix.mem)
	if n == 0 || ix.vectors == nil || ix.wal == nil {
		ix.mu.RUnlock()
		return false, nil
	}
	if err := ix.wal.Err(); err != nil {
		ix.mu.RUnlock()
		return true, walUnavailable(err)
	}
	batch := make([][]float32, n)
	copy(batch, ix.mem[:n])
	oldCount := ix.vectors.Count()
	oldGen := ix.gen
	ix.mu.RUnlock()

	// The batch must be durable before the commit makes it part of the
	// committed index state. A batch insert may still be waiting on its
	// group commit; were that fsync to fail after the snapshot, the WAL-
	// failure rollback would drop an insert this compaction commits.
	if err := ix.wal.Sync(); err != nil {
		if errors.Is(err, wal.ErrClosed) {
			return true, err
		}
		return true, ix.noteWALFailure(err)
	}

	rdist, err := computeRefDists(ctx, batch, ix.refs)
	if err != nil {
		return true, err
	}

	// Marks to reclaim: every marked object the rebuilt trees would
	// cover, keyed by slot as their entries are. Marks set after this
	// snapshot keep their WAL records or land in the meta.json written
	// below, so nothing acknowledged is lost.
	drop := ix.deleted.marksBelow(oldCount + uint64(n))

	newGen := oldGen + 1
	newTrees := make([]*rdbtree.Tree, ix.params.Tau)
	abort := func() { ix.dropTrees(newTrees, newGen) }
	for t := range newTrees {
		if err := ctx.Err(); err != nil {
			abort()
			return true, err
		}
		if newTrees[t], err = ix.compactTree(ctx, t, batch, rdist, oldCount, newGen, drop); err != nil {
			abort()
			return true, err
		}
	}

	// The batch's records go past the committed count, fsynced: a
	// failure here or a crash after it leaves bytes no count reaches,
	// which the next compaction writes over. Only compactions append.
	if err := ix.vectors.AppendAll(batch); err != nil {
		abort()
		return true, err
	}

	// ---- commit ----
	newCount := oldCount + uint64(n)
	ix.mu.Lock()
	if err := ix.writeMeta(newCount, newGen, drop); err != nil {
		ix.mu.Unlock()
		abort()
		return true, err
	}
	// meta.json landed, so the batch IS committed and memory follows
	// unconditionally: the store's count, the generation, the reclaimed
	// marks, the memtable.
	ix.vectors.SetCount(newCount)
	oldTrees := ix.trees
	ix.trees, ix.gen = newTrees, newGen
	ix.deleted.purge(drop)
	rest := make([][]float32, len(ix.mem)-n)
	copy(rest, ix.mem[n:])
	restOff := make([]int64, len(ix.memOff)-n)
	copy(restOff, ix.memOff[n:])
	ix.mem, ix.memOff = rest, restOff
	ix.compactions++
	ix.lastCompactN = n
	// Then the one persistence step that may fail: the WAL keeps only the
	// surviving inserts, meta.json holds the marks. A log left whole
	// replays idempotently onto the commit.
	tail := make([]wal.Record, len(rest))
	for i, v := range rest {
		tail[i] = wal.Record{Op: wal.OpInsert, ID: newCount + uint64(i), Vec: v}
	}
	rewriteErr := ix.wal.RewriteWith(tail)
	ix.lastCompactMS = msSince(start)
	ix.mu.Unlock()
	ix.tel.ObserveCompaction(time.Since(start))

	ix.dropTrees(oldTrees, oldGen)
	if rewriteErr != nil && !errors.Is(rewriteErr, wal.ErrClosed) {
		// The commit itself is durable (meta.json landed); what failed is
		// the WAL truncation. A transient failure (the temp file could
		// not be created) leaves the log healthy — replay idempotently
		// skips the committed prefix, so the only cost is a longer log
		// and the breaker retries. A poisoned log (fsync failed) breaks
		// the durability contract for FUTURE writes: the index is
		// read-only from here.
		if ix.wal.Err() != nil {
			return true, ix.noteWALFailure(rewriteErr)
		}
	}
	return true, rewriteErr
}

// dropTrees closes generation gen's open trees and removes its files.
func (ix *Index) dropTrees(trees []*rdbtree.Tree, gen uint64) {
	for t, tree := range trees {
		if tree != nil {
			tree.Pager().Close()
		}
		os.Remove(ix.treeGenPath(t, gen))
	}
}

// compactTree builds tree t's next generation: the existing entries
// (already in stored-key order, minus the dropped slots) merged with the
// radix-sorted batch on their stored key prefixes, through the tree
// writer Build uses — only the merge is compaction's own. A batch
// object's slot is its id: it joins the unclustered tail of the store.
// Ties keep old-before-new order, which equals id order because Build
// breaks key ties by id and batch ids are always larger than committed
// ids. The old entries' distances are decoded and coded again: bit for
// bit while the old tree's scale covers the batch, at a coarser scale
// and a wider error bound when a batch object lies farther from a
// reference than anything before it.
func (ix *Index) compactTree(ctx context.Context, t int, batch [][]float32, rdistB []float32, oldCount, newGen uint64, drop map[uint64]uint64) (*rdbtree.Tree, error) {
	w := ix.treeConfig().StoredKeyLen()
	m := ix.params.M
	nB := len(batch)
	keysB, err := ix.encodeKeys(ctx, t, batch)
	if err != nil {
		return nil, err
	}
	permB := sortedPerm(keysB, w)

	// Merge into flat arenas. Reading the old tree without the index
	// lock is safe: only compaction replaces trees, and Compact
	// serialises against itself via compactMu; its own pool spares ix.cache.
	scan, err := pager.Open(ix.treeGenPath(t, newGen-1), pager.Options{ReadOnly: true})
	if err != nil {
		return nil, err
	}
	defer scan.Close()
	old, err := rdbtree.Open(scan)
	if err != nil {
		return nil, err
	}
	oldN := int(old.Count())
	capN := oldN + nB
	keys := make([]byte, 0, capN*w)
	slots := make([]uint64, 0, capN)
	rd := make([]float32, 0, capN*m)
	j := 0
	emitBatchBelow := func(bound []byte) {
		for j < nB {
			row := int(permB[j])
			bk := keysB[row*w : (row+1)*w]
			if bound != nil && bytes.Compare(bk, bound) >= 0 {
				return
			}
			j++
			slot := oldCount + uint64(row)
			if _, dead := drop[slot]; dead {
				continue
			}
			keys = append(keys, bk...)
			slots = append(slots, slot)
			rd = append(rd, rdistB[row*m:(row+1)*m]...)
		}
	}
	scanned := 0
	var scanErr error
	err = old.ScanAll(func(k []byte, e rdbtree.Entry) bool {
		if scanned%4096 == 0 && ctx.Err() != nil {
			scanErr = ctx.Err()
			return false
		}
		scanned++
		emitBatchBelow(k)
		if _, dead := drop[e.ID]; !dead {
			keys = append(keys, k...)
			slots = append(slots, e.ID)
			rd = append(rd, e.RefDists...) // decoded, into a scratch; append copies
		}
		return true
	})
	if err == nil {
		err = scanErr
	}
	if err != nil {
		return nil, err
	}
	emitBatchBelow(nil)

	return ix.writeTree(ix.treeGenPath(t, newGen), keys, identityPerm(len(slots)), slots, rd, old.Scale())
}
