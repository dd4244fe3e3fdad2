package core

import (
	"errors"
	"fmt"
	"time"
)

// Failure containment for the write path. Two independent failure
// domains, two distinct behaviours:
//
//   - WAL failure (fsync or append error): the durability contract is
//     broken and the log stays poisoned (wal.Log.Err), which is the
//     index's read-only state — every further Insert/Delete/Undelete
//     fails fast with ErrWALUnavailable while queries keep serving. An
//     insert is acknowledged iff its record is fsynced (the WAL's group
//     commit), so the memtable suffix past the last durable offset was
//     never acknowledged to anyone and is rolled back — the in-memory
//     state then matches exactly what a crash-restart replay would
//     rebuild.
//
//   - Compaction failure (tree rebuild I/O, vector-store append, meta
//     write): Compact commits all-or-nothing, so the old generation
//     keeps serving and the WAL + memtable still cover every
//     acknowledged write. The background compactor retries under a
//     circuit breaker with capped exponential backoff instead of
//     hammering a sick disk on every wake. The breaker is open while
//     the count of consecutive failures is above zero.

// ErrWALUnavailable reports a write rejected because the write-ahead
// log failed: the index is read-only until reopened. Callers (the
// facade, the HTTP layer) match it with errors.Is to map the failure
// to a 503 while continuing to serve reads.
var ErrWALUnavailable = errors.New("core: write-ahead log unavailable, index is read-only")

// Compaction-breaker backoff bounds.
const (
	compactBackoffBase = 250 * time.Millisecond
	compactBackoffMax  = 30 * time.Second
)

func walUnavailable(cause error) error {
	if cause == nil {
		return ErrWALUnavailable
	}
	return fmt.Errorf("%w: %w", ErrWALUnavailable, cause)
}

// noteWALFailure brings memory in line with a failed log. Takes ix.mu
// itself; returns the error callers should surface.
func (ix *Index) noteWALFailure(cause error) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.noteWALFailureLocked(cause)
}

// noteWALFailureLocked is noteWALFailure with ix.mu already held. The
// log keeps its own sticky failure (ix.wal.Err), so all this does is
// roll back the never-acknowledged memtable suffix. A poisoned log
// takes no more appends and its durable offset never falls, so every
// call after the first finds nothing left to drop.
func (ix *Index) noteWALFailureLocked(cause error) error {
	// An insert is acknowledged only once its record is fsynced, so
	// entries past the durable offset were never promised to any caller:
	// drop them, restoring the exact state a crash-restart replay would
	// rebuild.
	if ix.wal != nil {
		durable := ix.wal.DurableOffset()
		keep := len(ix.mem)
		for keep > 0 && ix.memOff[keep-1] > durable {
			keep--
		}
		ix.mem = ix.mem[:keep:keep]
		ix.memOff = ix.memOff[:keep:keep]
	}
	return walUnavailable(cause)
}

// WALFailed reports whether the write-ahead log has failed and the
// index is read-only. Queries are unaffected; every write fails with
// ErrWALUnavailable. A closed index reports false.
func (ix *Index) WALFailed() bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.readOnlyLocked()
}

// readOnlyLocked is WALFailed with ix.mu held: the log's poison is the
// read-only state.
func (ix *Index) readOnlyLocked() bool {
	return ix.wal != nil && ix.wal.Err() != nil
}

// noteCompactFailure records one failed compaction, which opens the
// breaker or keeps it open one step longer.
func (ix *Index) noteCompactFailure(err error) {
	ix.mu.Lock()
	ix.compactConsecFails++
	ix.compactFailures++
	ix.lastCompactErr = err.Error()
	ix.mu.Unlock()
}

// compactRetryDelay reports how long the breaker holds before the next
// attempt: 0 while it is closed (no failure since the last success),
// else exponential in the consecutive failures from compactBackoffBase,
// capped at compactBackoffMax. The background loop reads it after any
// failed attempt, a manual Compact call's included.
func (ix *Index) compactRetryDelay() time.Duration {
	ix.mu.RLock()
	n := ix.compactConsecFails
	ix.mu.RUnlock()
	if n == 0 {
		return 0
	}
	return min(compactBackoffBase<<min(n-1, 20), compactBackoffMax)
}

// noteCompactOK closes the breaker after a successful compaction.
func (ix *Index) noteCompactOK() {
	ix.mu.Lock()
	ix.compactConsecFails = 0
	ix.mu.Unlock()
}
