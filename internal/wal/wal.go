// Package wal is the write-ahead log behind live ingest: every insert,
// delete and undelete appends one checksummed record here before it is
// acknowledged, so the in-memory state it mutates (core's memtable and
// delete marks) can be rebuilt after a crash by replaying the log.
//
// The format is deliberately dumb — a flat sequence of length-prefixed,
// CRC-guarded records:
//
//	┌──────────────┬──────────────┬──────────────────────────────┐
//	│ len  uint32  │ crc32c       │ payload (len bytes)          │
//	│ little-endian│ of payload   │ op ┊ id ┊ vector (inserts)   │
//	└──────────────┴──────────────┴──────────────────────────────┘
//
// A crash can only tear the final record (appends are sequential), and
// a torn record fails its length or checksum test, so Open truncates
// the file at the first invalid record and replays the prefix — the
// log never needs a recovery index or segment map.
//
// Durability is group-committed, and an append is acknowledged only
// once an fsync covers it: appends land in the OS page cache
// immediately and WaitDurable rides the next fsync, with the first
// waiter acting as leader and syncing on behalf of everyone queued
// behind it. Sync and Close wait the same way, so once the log is open
// its file is fsynced in exactly one place. The log starts no
// goroutines.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/hd-index/hdindex/internal/iofault"
)

// Ops recorded in the log.
const (
	OpInsert   byte = 1
	OpDelete   byte = 2
	OpUndelete byte = 3
)

// maxPayload bounds a record's declared payload length; anything larger
// is treated as tail corruption rather than attempted as an allocation.
const maxPayload = 1 << 28

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed reports use of a closed log.
var ErrClosed = errors.New("wal: log is closed")

// Record is one logged mutation. Vec is set only for OpInsert.
type Record struct {
	Op  byte
	ID  uint64
	Vec []float32
}

// Options tunes a log.
type Options struct {
	// OnSync, when non-nil, is invoked with the wall-clock duration of
	// every fsync the log issues. It runs on the group-commit leader's
	// goroutine with the log lock held: implementations must be cheap
	// and must not call back into the log (core feeds a lock-free
	// telemetry histogram).
	OnSync func(time.Duration)
}

// Stats is a point-in-time summary of the log.
type Stats struct {
	Bytes   int64 // current file size
	Records int64 // records in the file
	Syncs   int64 // fsyncs issued since open
}

// Log is an append-only write-ahead log. Append order is the caller's
// responsibility (core appends while holding its index lock, so log
// order matches id-assignment order); the log itself only serialises
// the file writes and the group-commit fsync protocol.
type Log struct {
	path string
	opts Options

	mu   sync.Mutex
	cond *sync.Cond
	f    iofault.File
	// size and synced are LOGICAL offsets: monotonically increasing
	// across RewriteWith, so an offset handed out by AppendNoSync stays
	// meaningful to WaitDurable even if a compaction truncates the file
	// underneath the waiter (everything before a rewrite is durable by
	// construction — either folded into the committed index state or
	// re-written into the fsynced tail).
	size     int64
	synced   int64
	fileSize int64 // physical length of the current file
	records  int64
	syncs    int64
	// syncing is the file a group-commit leader is fsyncing, nil when
	// none is. A file RewriteWith swapped out under the leader is closed
	// by the leader once its fsync returns.
	syncing iofault.File
	syncErr error // sticky: an fsync failure poisons the log
	closed  bool
}

// Open opens (creating if absent) the log at path, truncates any torn
// tail, and invokes replay for every surviving record in append order.
// Replay stops at the first callback error, which Open returns.
func Open(path string, opts Options, replay func(Record) error) (*Log, error) {
	f, err := iofault.Open(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	fail := func(e error) (*Log, error) { f.Close(); return nil, e }
	valid, nrec, err := scan(f, replay)
	if err != nil {
		return fail(err)
	}
	fi, err := f.Stat()
	if err != nil {
		return fail(fmt.Errorf("wal: stat: %w", err))
	}
	if fi.Size() > valid {
		// Torn or corrupt tail: the record was never acknowledged (its
		// fsync cannot have completed), so dropping it loses nothing.
		if err := f.Truncate(valid); err != nil {
			return fail(fmt.Errorf("wal: truncate torn tail: %w", err))
		}
		if err := f.Sync(); err != nil {
			return fail(fmt.Errorf("wal: sync after truncate: %w", err))
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		return fail(fmt.Errorf("wal: seek: %w", err))
	}
	l := &Log{path: path, opts: opts, f: f, size: valid, synced: valid, fileSize: valid, records: nrec}
	l.cond = sync.NewCond(&l.mu)
	return l, nil
}

// scan reads records from the start of f, calling replay for each valid
// one, and returns the byte offset of the first invalid record (= the
// length of the valid prefix) plus the valid record count.
func scan(f iofault.File, replay func(Record) error) (valid int64, nrec int64, err error) {
	var hdr [8]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			// io.EOF (clean end) or ErrUnexpectedEOF (torn header):
			// either way the valid prefix ends here.
			return valid, nrec, nil
		}
		plen := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if plen < 9 || plen > maxPayload {
			return valid, nrec, nil
		}
		if cap(payload) < int(plen) {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(f, payload); err != nil {
			return valid, nrec, nil // torn payload
		}
		if crc32.Checksum(payload, castagnoli) != crc {
			return valid, nrec, nil // corrupt record
		}
		rec, ok := decodePayload(payload)
		if !ok {
			return valid, nrec, nil
		}
		if replay != nil {
			if err := replay(rec); err != nil {
				return 0, 0, err
			}
		}
		valid += int64(8 + plen)
		nrec++
	}
}

func decodePayload(p []byte) (Record, bool) {
	rec := Record{Op: p[0], ID: binary.LittleEndian.Uint64(p[1:9])}
	body := p[9:]
	switch rec.Op {
	case OpInsert:
		if len(body)%4 != 0 {
			return Record{}, false
		}
		rec.Vec = make([]float32, len(body)/4)
		for i := range rec.Vec {
			rec.Vec[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:]))
		}
	case OpDelete, OpUndelete:
		if len(body) != 0 {
			return Record{}, false
		}
	default:
		return Record{}, false
	}
	return rec, true
}

func encodeRecord(rec Record) []byte {
	plen := 9 + 4*len(rec.Vec)
	buf := make([]byte, 8+plen)
	payload := buf[8:]
	payload[0] = rec.Op
	binary.LittleEndian.PutUint64(payload[1:9], rec.ID)
	for i, v := range rec.Vec {
		binary.LittleEndian.PutUint32(payload[9+4*i:], math.Float32bits(v))
	}
	binary.LittleEndian.PutUint32(buf[0:4], uint32(plen))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	return buf
}

// AppendNoSync appends one record to the log's page-cache image and
// returns the file offset just past it — the token WaitDurable takes.
// Callers serialise their appends against their own state mutation (core
// holds its index lock), which is what keeps log order meaningful.
func (l *Log) AppendNoSync(rec Record) (int64, error) {
	buf := encodeRecord(rec)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.syncErr != nil {
		return 0, l.syncErr
	}
	if _, err := l.f.Write(buf); err != nil {
		// A torn in-cache write would desynchronise size from the file;
		// poison the log rather than guess.
		return 0, l.poisonLocked(fmt.Errorf("wal: append: %w", err))
	}
	l.size += int64(len(buf))
	l.fileSize += int64(len(buf))
	l.records++
	return l.size, nil
}

// poisonLocked makes err the log's sticky failure and wakes every
// waiter to see it.
func (l *Log) poisonLocked(err error) error {
	l.syncErr = err
	l.cond.Broadcast()
	return err
}

// WaitDurable blocks until the log is durable up to off (an offset
// returned by AppendNoSync): the group commit, in which the first waiter
// fsyncs on behalf of everyone queued behind it.
func (l *Log) WaitDurable(off int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.waitLocked(off)
}

// waitLocked is WaitDurable with l.mu held: the log's one wait loop.
func (l *Log) waitLocked(off int64) error {
	for {
		if l.syncErr != nil {
			return l.syncErr
		}
		if l.synced >= off {
			return nil
		}
		if l.closed {
			return ErrClosed
		}
		if l.syncing == nil {
			l.leaderSyncLocked()
			continue
		}
		l.cond.Wait()
	}
}

// leaderSyncLocked performs one group-commit fsync covering everything
// appended so far, then wakes the waiters riding on it. Called with
// l.mu held; the lock is released for the fsync itself so appends keep
// landing (and queueing into the next commit) while the disk works.
// This is the only fsync of the live file.
func (l *Log) leaderSyncLocked() {
	f, target := l.f, l.size
	l.syncing = f
	l.mu.Unlock()
	start := time.Now()
	err := f.Sync()
	elapsed := time.Since(start)
	l.mu.Lock()
	l.syncing = nil
	if f != l.f {
		// RewriteWith replaced the file during the fsync and left closing
		// the old descriptor to us.
		f.Close()
	}
	l.syncs++
	if l.opts.OnSync != nil {
		l.opts.OnSync(elapsed)
	}
	if err != nil {
		l.syncErr = fmt.Errorf("wal: fsync: %w", err)
	} else if target > l.synced {
		l.synced = target
	}
	l.cond.Broadcast()
}

// Sync waits until everything appended so far is durable: the group
// commit up to the current end of the log.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.waitLocked(l.size)
}

// RewriteWith atomically replaces the log's contents with recs — the
// compaction truncation. The new file is written beside the log, fsynced,
// renamed over it, and the directory entry fsynced, so a crash at any
// point leaves either the complete old log or the complete new one.
// The caller must exclude concurrent appends (core holds its index
// write lock across the compaction commit).
func (l *Log) RewriteWith(recs []Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.syncErr != nil {
		return l.syncErr
	}
	dir, name := filepath.Split(l.path)
	if dir == "" {
		dir = "."
	}
	otmp, err := os.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return fmt.Errorf("wal: rewrite: %w", err)
	}
	tmpName := otmp.Name()
	tmp := iofault.Wrap(tmpName, otmp)
	fail := func(e error) error {
		tmp.Close()
		os.Remove(tmpName)
		return e
	}
	var size int64
	for _, rec := range recs {
		buf := encodeRecord(rec)
		if _, err := tmp.Write(buf); err != nil {
			return fail(fmt.Errorf("wal: rewrite: %w", err))
		}
		size += int64(len(buf))
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("wal: rewrite sync: %w", err))
	}
	if err := os.Rename(tmpName, l.path); err != nil {
		return fail(fmt.Errorf("wal: rewrite rename: %w", err))
	}
	tmp.Close()
	if err := syncDir(dir); err != nil {
		// The rename's directory entry may not be durable: a crash could
		// resurrect the pre-rewrite log. Replay is idempotent, so no
		// acked write is at risk — but a disk that fails fsync must not
		// be trusted with further appends, and the caller's compaction
		// must not be acknowledged as cleanly committed. Poison the log;
		// the old handle keeps pointing at the unlinked previous file,
		// which no longer matters because every write path now fails.
		return l.poisonLocked(fmt.Errorf("wal: rewrite dir sync: %w", err))
	}
	// Swap the handle: the old descriptor still points at the unlinked
	// previous file.
	nf, err := iofault.Open(l.path, os.O_RDWR, 0o644)
	if err != nil {
		return l.poisonLocked(fmt.Errorf("wal: reopen after rewrite: %w", err))
	}
	if _, err := nf.Seek(size, io.SeekStart); err != nil {
		nf.Close()
		return l.poisonLocked(fmt.Errorf("wal: seek after rewrite: %w", err))
	}
	// A leader mid-fsync on the old file closes it when its fsync
	// returns; closing it here would fail that fsync and poison the log.
	if l.syncing != l.f {
		l.f.Close()
	}
	l.f = nf
	// Everything appended before the rewrite is durable now (folded into
	// the caller's committed state or re-written into the fsynced tail),
	// so logical offsets held by in-flight WaitDurable calls resolve.
	l.synced = l.size
	l.fileSize = size
	l.records = int64(len(recs))
	l.cond.Broadcast()
	return nil
}

// syncDir fsyncs a directory so a rename inside it is durable. Routed
// through the iofault seam so chaos tests can fail the directory sync
// specifically.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	fd := iofault.Wrap(dir, d)
	err = fd.Sync()
	if cerr := fd.Close(); err == nil {
		err = cerr
	}
	return err
}

// DurableOffset returns the logical offset the log is known durable up
// to: every record whose AppendNoSync offset is <= this value has been
// covered by a successful fsync (or folded into a rewrite). Core's
// WAL-failure rollback uses it to find the acknowledged prefix of the
// memtable.
func (l *Log) DurableOffset() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.synced
}

// Err returns the sticky poison error, nil while the log is healthy.
// A non-nil Err means a write or fsync failed and every further write
// path fails with the same error; core uses it to distinguish "the log
// itself is poisoned" from a transient rewrite failure (a temp file
// that could not be created) that leaves the log fully usable.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncErr
}

// Stats returns the log's size and activity counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{Bytes: l.fileSize, Records: l.records, Syncs: l.syncs}
}

// Close makes outstanding appends durable through a last group commit
// and closes the file. It reports that commit's failure, not an earlier
// poison. Safe to call more than once.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	var err error
	if l.syncErr == nil {
		err = l.waitLocked(l.size)
	}
	for l.syncing != nil {
		l.cond.Wait() // a leader still holds a file
	}
	l.closed = true
	l.cond.Broadcast()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
