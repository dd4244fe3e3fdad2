package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/hd-index/hdindex/internal/iofault"
)

func reopenAndCollect(t *testing.T, path string, opts Options) (*Log, []Record) {
	t.Helper()
	var got []Record
	l, err := Open(path, opts, func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, got
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, got := reopenAndCollect(t, path, Options{})
	if len(got) != 0 {
		t.Fatalf("fresh log replayed %d records", len(got))
	}
	want := []Record{
		{Op: OpInsert, ID: 0, Vec: []float32{1, 2, 3.5}},
		{Op: OpInsert, ID: 1, Vec: []float32{-4, 0, 9}},
		{Op: OpDelete, ID: 0},
		{Op: OpUndelete, ID: 0},
		{Op: OpInsert, ID: 2, Vec: []float32{7}},
	}
	for _, r := range want {
		off, err := l.AppendNoSync(r)
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		if err := l.WaitDurable(off); err != nil {
			t.Fatalf("wait durable: %v", err)
		}
	}
	st := l.Stats()
	if st.Records != int64(len(want)) {
		t.Fatalf("Records = %d, want %d", st.Records, len(want))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	l2, got := reopenAndCollect(t, path, Options{})
	defer l2.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\n got %v\nwant %v", got, want)
	}
}

// TestTornTailTruncation cuts the file at every byte boundary inside the
// final record and checks that Open always recovers exactly the first
// two records and truncates the rest.
func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, _ := reopenAndCollect(t, path, Options{})
	recs := []Record{
		{Op: OpInsert, ID: 0, Vec: []float32{1, 2}},
		{Op: OpInsert, ID: 1, Vec: []float32{3, 4}},
		{Op: OpInsert, ID: 2, Vec: []float32{5, 6}},
	}
	var offs []int64
	for _, r := range recs {
		off, err := l.AppendNoSync(r)
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := offs[1] + 1; cut < offs[2]; cut++ {
		cutPath := filepath.Join(dir, "cut.log")
		if err := os.WriteFile(cutPath, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, got := reopenAndCollect(t, cutPath, Options{})
		if len(got) != 2 {
			t.Fatalf("cut at %d: replayed %d records, want 2", cut, len(got))
		}
		if got[1].ID != 1 {
			t.Fatalf("cut at %d: second record id %d", cut, got[1].ID)
		}
		fi, err := os.Stat(cutPath)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != offs[1] {
			t.Fatalf("cut at %d: truncated to %d, want %d", cut, fi.Size(), offs[1])
		}
		l2.Close()
	}
}

// TestCorruptRecordStopsReplay flips a payload byte in the middle record
// and checks replay stops before it — a checksum failure anywhere ends
// the valid prefix.
func TestCorruptRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, _ := reopenAndCollect(t, path, Options{})
	var offs []int64
	for i := 0; i < 3; i++ {
		off, err := l.AppendNoSync(Record{Op: OpInsert, ID: uint64(i), Vec: []float32{float32(i)}})
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
	l.Close()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[offs[0]+8] ^= 0xFF // first payload byte of record 1
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, got := reopenAndCollect(t, path, Options{})
	defer l2.Close()
	if len(got) != 1 || got[0].ID != 0 {
		t.Fatalf("replayed %v, want only record 0", got)
	}
	if sz := l2.Stats().Bytes; sz != offs[0] {
		t.Fatalf("log size %d after corrupt truncate, want %d", sz, offs[0])
	}
}

// TestAbsurdLengthIsCorruption writes a header whose length field would
// exceed maxPayload; replay must stop cleanly instead of allocating.
func TestAbsurdLengthIsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], maxPayload+1)
	if err := os.WriteFile(path, hdr[:], 0o644); err != nil {
		t.Fatal(err)
	}
	l, got := reopenAndCollect(t, path, Options{})
	defer l.Close()
	if len(got) != 0 {
		t.Fatalf("replayed %d records from garbage", len(got))
	}
	if l.Stats().Bytes != 0 {
		t.Fatalf("size %d, want 0", l.Stats().Bytes)
	}
}

func TestReplayErrorPropagates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := reopenAndCollect(t, path, Options{})
	if _, err := l.AppendNoSync(Record{Op: OpInsert, ID: 0, Vec: []float32{1}}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	boom := errors.New("boom")
	if _, err := Open(path, Options{}, func(Record) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Open error = %v, want %v", err, boom)
	}
}

// TestGroupCommitConcurrent hammers the group-commit path from many
// goroutines; every acknowledged append must survive reopen.
func TestGroupCommitConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := reopenAndCollect(t, path, Options{})
	const writers, perWriter = 8, 50
	var mu sync.Mutex
	var idMu sync.Mutex
	nextID := uint64(0)
	acked := make(map[uint64][]float32)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Mimic core: id assignment and append under one lock.
				idMu.Lock()
				id := nextID
				nextID++
				vec := []float32{float32(w), float32(i)}
				off, err := l.AppendNoSync(Record{Op: OpInsert, ID: id, Vec: vec})
				idMu.Unlock()
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if err := l.WaitDurable(off); err != nil {
					t.Errorf("wait durable: %v", err)
					return
				}
				mu.Lock()
				acked[id] = vec
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, got := reopenAndCollect(t, path, Options{})
	defer l2.Close()
	if len(got) != writers*perWriter {
		t.Fatalf("replayed %d records, want %d", len(got), writers*perWriter)
	}
	for i, r := range got {
		if r.ID != uint64(i) {
			t.Fatalf("record %d has id %d — append order broke", i, r.ID)
		}
		if want := acked[r.ID]; !reflect.DeepEqual(r.Vec, want) {
			t.Fatalf("id %d replayed vec %v, want %v", r.ID, r.Vec, want)
		}
	}
}

func TestRewriteWith(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := reopenAndCollect(t, path, Options{})
	for i := 0; i < 5; i++ {
		if _, err := l.AppendNoSync(Record{Op: OpInsert, ID: uint64(i), Vec: []float32{float32(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	tail := []Record{
		{Op: OpInsert, ID: 3, Vec: []float32{3}},
		{Op: OpInsert, ID: 4, Vec: []float32{4}},
	}
	if err := l.RewriteWith(tail); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if st := l.Stats(); st.Records != 2 {
		t.Fatalf("Records = %d after rewrite, want 2", st.Records)
	}
	// The swapped handle must keep accepting appends at the right offset.
	off, err := l.AppendNoSync(Record{Op: OpDelete, ID: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(off); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, got := reopenAndCollect(t, path, Options{})
	defer l2.Close()
	want := append(append([]Record{}, tail...), Record{Op: OpDelete, ID: 3})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after rewrite replay = %v, want %v", got, want)
	}
}

func TestRewriteWithEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := reopenAndCollect(t, path, Options{})
	for i := 0; i < 3; i++ {
		if _, err := l.AppendNoSync(Record{Op: OpInsert, ID: uint64(i), Vec: []float32{1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.RewriteWith(nil); err != nil {
		t.Fatal(err)
	}
	if l.Stats().Bytes != 0 {
		t.Fatalf("size %d after empty rewrite", l.Stats().Bytes)
	}
	l.Close()
	l2, got := reopenAndCollect(t, path, Options{})
	defer l2.Close()
	if len(got) != 0 {
		t.Fatalf("replayed %d records after empty rewrite", len(got))
	}
}

// TestFaultRewriteDuringLeaderFsync runs a compaction's rewrite while a
// group-commit leader sits in a slow fsync of the file the rewrite
// replaces. The rewrite must leave that descriptor open for the leader,
// so the waiter is acknowledged, the log stays healthy, and appends
// after the rewrite land in the new file.
func TestFaultRewriteDuringLeaderFsync(t *testing.T) {
	restore := iofault.SetGlobal(iofault.NewInjector(iofault.Rule{
		PathGlob: "wal.log", Op: iofault.OpSync, Latency: 50 * time.Millisecond,
	}))
	defer restore()
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := reopenAndCollect(t, path, Options{})
	off, err := l.AppendNoSync(Record{Op: OpInsert, ID: 0, Vec: []float32{1}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- l.WaitDurable(off) }()
	for leading := false; !leading; {
		runtime.Gosched()
		l.mu.Lock()
		leading = l.syncing != nil
		l.mu.Unlock()
	}
	tail := []Record{{Op: OpInsert, ID: 0, Vec: []float32{1}}}
	if err := l.RewriteWith(tail); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("WaitDurable across the rewrite: %v", err)
	}
	if err := l.Err(); err != nil {
		t.Fatalf("log poisoned by the rewrite: %v", err)
	}
	off, err = l.AppendNoSync(Record{Op: OpDelete, ID: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(off); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, got := reopenAndCollect(t, path, Options{})
	defer l2.Close()
	if want := append(tail, Record{Op: OpDelete, ID: 0}); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay = %v, want %v", got, want)
	}
}

func TestClosedLogRejectsUse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := reopenAndCollect(t, path, Options{})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := l.AppendNoSync(Record{Op: OpDelete, ID: 0}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append on closed log: %v", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("sync on closed log: %v", err)
	}
}

// referenceReplay is the log framing written out plainly, apart from
// scan: records follow each other from offset 0 until one is short,
// declares a payload under 9 bytes or over maxPayload, fails its
// CRC-32C, names an unknown op, or carries a body its op does not take.
// It returns the records before that point and the prefix's length.
func referenceReplay(log []byte) (recs []Record, valid int) {
	for {
		rest := log[valid:]
		if len(rest) < 8 {
			return recs, valid
		}
		plen := int(binary.LittleEndian.Uint32(rest[0:4]))
		if plen < 9 || plen > maxPayload || len(rest)-8 < plen {
			return recs, valid
		}
		p := rest[8 : 8+plen]
		if crc32.Checksum(p, crc32.MakeTable(crc32.Castagnoli)) != binary.LittleEndian.Uint32(rest[4:8]) {
			return recs, valid
		}
		rec := Record{Op: p[0], ID: binary.LittleEndian.Uint64(p[1:9])}
		body := p[9:]
		switch {
		case rec.Op == OpInsert && len(body)%4 == 0:
			for i := 0; i < len(body); i += 4 {
				rec.Vec = append(rec.Vec, math.Float32frombits(binary.LittleEndian.Uint32(body[i:])))
			}
		case (rec.Op == OpDelete || rec.Op == OpUndelete) && len(body) == 0:
		default:
			return recs, valid
		}
		recs = append(recs, rec)
		valid += 8 + plen
	}
}

// FuzzWALReplay feeds Open arbitrary log bytes. It must never panic,
// must replay exactly the records of the valid prefix (referenceReplay's),
// and must truncate the file to that prefix, so that a second Open
// replays the same records from a file of the same length. Seeded from
// a log the tests write, a torn tail of it, and a corrupt record.
func FuzzWALReplay(f *testing.F) {
	path := filepath.Join(f.TempDir(), "wal.log")
	l, err := Open(path, Options{}, nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range []Record{
		{Op: OpInsert, ID: 0, Vec: []float32{1, 2, 3.5}},
		{Op: OpDelete, ID: 0},
		{Op: OpInsert, ID: 1, Vec: []float32{float32(math.NaN()), -0, 7}},
		{Op: OpUndelete, ID: 0},
		{Op: OpInsert, ID: 2},
	} {
		if _, err := l.AppendNoSync(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(whole)
	f.Add(whole[:len(whole)-5]) // a torn tail
	corrupt := append([]byte(nil), whole...)
	corrupt[len(corrupt)/2] ^= 0x40
	f.Add(corrupt)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, log []byte) {
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		want, valid := referenceReplay(log)
		for open := 1; open <= 2; open++ {
			var got []Record
			l, err := Open(path, Options{}, func(r Record) error {
				got = append(got, r)
				return nil
			})
			if err != nil {
				t.Fatalf("Open %d: %v", open, err)
			}
			size := l.Stats().Bytes
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if size != int64(valid) {
				t.Fatalf("Open %d: log size %d, valid prefix %d", open, size, valid)
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() != int64(valid) {
				t.Fatalf("Open %d: file truncated to %d bytes, valid prefix %d", open, fi.Size(), valid)
			}
			if len(got) != len(want) {
				t.Fatalf("Open %d replayed %d records, the valid prefix holds %d", open, len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				same := g.Op == w.Op && g.ID == w.ID && len(g.Vec) == len(w.Vec)
				for j := 0; same && j < len(w.Vec); j++ {
					same = math.Float32bits(g.Vec[j]) == math.Float32bits(w.Vec[j])
				}
				if !same {
					t.Fatalf("Open %d, record %d: replayed %+v, want %+v", open, i, g, w)
				}
			}
		}
	})
}
