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
//     broken, so the index flips to read-only — every further
//     Insert/Delete/Undelete fails fast with ErrWALUnavailable while
//     queries keep serving. An insert is acknowledged iff its record is
//     fsynced (the WAL's group commit), so the memtable suffix past the
//     last durable offset was never acknowledged to anyone and is
//     rolled back — the in-memory state then matches exactly what a
//     crash-restart replay would rebuild.
//
//   - Compaction failure (tree rebuild I/O, vector-store append, meta
//     write): Compact commits all-or-nothing, so the old generation
//     keeps serving and the WAL + memtable still cover every
//     acknowledged write. The background compactor retries under a
//     circuit breaker with capped exponential backoff instead of
//     hammering a sick disk on every wake.

// ErrWALUnavailable reports a write rejected because the write-ahead
// log failed: the index is read-only until reopened. Callers (the
// facade, the HTTP layer) match it with errors.Is to map the failure
// to a 503 while continuing to serve reads.
var ErrWALUnavailable = errors.New("core: write-ahead log unavailable, index is read-only")

// Compaction-breaker backoff bounds. Vars, not consts, so chaos tests
// can shrink them to milliseconds.
var (
	compactBackoffBase = 250 * time.Millisecond
	compactBackoffMax  = 30 * time.Second
)

func walUnavailable(cause error) error {
	if cause == nil {
		return ErrWALUnavailable
	}
	return fmt.Errorf("%w: %w", ErrWALUnavailable, cause)
}

// noteWALFailure flips the index read-only. Takes ix.mu itself; returns
// the error callers should surface.
func (ix *Index) noteWALFailure(cause error) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.noteWALFailureLocked(cause)
}

// noteWALFailureLocked is noteWALFailure with ix.mu already held. The
// first failure wins: it records the cause and rolls back the
// never-acknowledged memtable suffix.
func (ix *Index) noteWALFailureLocked(cause error) error {
	if ix.walFailed {
		return walUnavailable(ix.walErr)
	}
	ix.walFailed = true
	ix.walErr = cause
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
// ErrWALUnavailable.
func (ix *Index) WALFailed() bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.walFailed
}

// noteCompactFailure records one failed compaction and computes how
// long the breaker holds before the next attempt: exponential from
// compactBackoffBase, capped at compactBackoffMax. The delay is stored
// (compactRetryDelay) so the background loop can pick it up even when
// the failing attempt was a manual Compact call.
func (ix *Index) noteCompactFailure(err error) {
	ix.mu.Lock()
	ix.compactConsecFails++
	ix.compactFailures++
	ix.breakerOpen = true
	ix.lastCompactErr = err.Error()
	shift := ix.compactConsecFails - 1
	if shift > 20 {
		shift = 20
	}
	d := compactBackoffBase << shift
	if d > compactBackoffMax || d <= 0 {
		d = compactBackoffMax
	}
	ix.compactBackoff = d
	ix.mu.Unlock()
}

// compactRetryDelay reports the breaker's current backoff (0 when
// closed).
func (ix *Index) compactRetryDelay() time.Duration {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if !ix.breakerOpen {
		return 0
	}
	return ix.compactBackoff
}

// noteCompactOK closes the breaker after a successful compaction.
func (ix *Index) noteCompactOK() {
	ix.mu.Lock()
	ix.compactConsecFails = 0
	ix.breakerOpen = false
	ix.mu.Unlock()
}
