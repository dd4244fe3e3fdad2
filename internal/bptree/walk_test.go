package bptree

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/hd-index/hdindex/internal/hilbert"
	"github.com/hd-index/hdindex/internal/pager"
)

// walkNearestPerEntry is the α-nearest walk WalkNearest replaced, kept as
// its reference: two cursors forked at the seek position, one direction
// test per entry (the byte-at-a-time KeyDelta comparison), ties right.
func walkNearestPerEntry(t *Tree, key []byte, n int, fn func(value []byte)) error {
	right, left := t.NewCursor(), t.NewCursor()
	defer right.Close()
	defer left.Close()
	if err := right.Seek(key); err != nil {
		return err
	}
	if err := left.Seek(key); err != nil {
		return err
	}
	var err error
	if left.Valid() {
		err = left.Prev()
	} else {
		err = left.Last()
	}
	da, db := make([]byte, len(key)), make([]byte, len(key))
	for i := 0; err == nil && i < n && (left.Valid() || right.Valid()); i++ {
		if !left.Valid() || (right.Valid() &&
			bytes.Compare(hilbert.KeyDelta(da, key, left.Key()), hilbert.KeyDelta(db, key, right.Key())) >= 0) {
			fn(right.Value())
			err = right.Next()
		} else {
			fn(left.Value())
			err = left.Prev()
		}
	}
	return err
}

// checkRun reports what is wrong with a run WalkNearest passed: it must
// be a whole number of values lying inside one leaf's value run. A run
// is a slice of its pinned page, whose frame ends the page, so the
// run's capacity tells where in the page it starts.
func checkRun(tr *Tree, run []byte) error {
	off := tr.pgr.PageSize() - cap(run)
	if tr.valLen > 0 && (len(run)%tr.valLen != 0 || (off-tr.valOff)%tr.valLen != 0) {
		return fmt.Errorf("a %d-byte run at page offset %d is not whole %d-byte values of the run at %d", len(run), off, tr.valLen, tr.valOff)
	}
	if off < tr.valOff || off+len(run) > tr.valOff+tr.leafCap*tr.valLen {
		return fmt.Errorf("a %d-byte run at page offset %d leaves the value run [%d, %d)", len(run), off, tr.valOff, tr.valOff+tr.leafCap*tr.valLen)
	}
	return nil
}

// perEntry adapts fn, called once per value in walk order, to
// WalkNearest's runs: each run split into its values, a descending
// one's taken from its end. Each run is checked with checkRun first.
func perEntry(t testing.TB, tr *Tree, fn func(value []byte)) func(run []byte, descending bool) {
	return func(run []byte, descending bool) {
		if err := checkRun(tr, run); err != nil {
			t.Fatal(err)
		}
		n := len(run) / tr.valLen
		for i := range n {
			e := i
			if descending {
				e = n - 1 - i
			}
			fn(run[e*tr.valLen : (e+1)*tr.valLen])
		}
	}
}

// walkTree builds a tree of count entries at the given geometry whose
// values are the entries' sequence numbers in key order at load time.
// Keys come from a few tight clusters with wide gaps between them (so
// whole leaves lie nearer than the other side's next key), with few
// distinct low bytes, so duplicate runs span leaf boundaries.
func walkTree(t testing.TB, rng *rand.Rand, keyLen, leafCap, count, poolPages int) (*Tree, [][]byte) {
	path := fmt.Sprintf("%s/walk-%d-%d-%d.pg", t.TempDir(), keyLen, leafCap, count)
	pgr, err := pager.Open(path, pager.Options{PageSize: 512, PoolPages: poolPages, Create: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pgr.Close() })
	tr, err := Create(pgr, Config{KeyLen: keyLen, ValLen: 4, LeafCap: leafCap})
	if err != nil {
		t.Fatal(err)
	}
	centres := make([][]byte, 1+rng.Intn(4))
	for i := range centres {
		centres[i] = make([]byte, keyLen)
		rng.Read(centres[i])
	}
	keys := make([][]byte, count)
	for i := range keys {
		k := slices.Clone(centres[rng.Intn(len(centres))])
		k[keyLen-1] = byte(rng.Intn(1 + rng.Intn(40))) // few distinct low bytes: long duplicate runs
		if keyLen > 1 && rng.Intn(4) == 0 {
			k[keyLen-2] ^= byte(rng.Intn(4))
		}
		keys[i] = k
	}
	slices.SortFunc(keys, bytes.Compare)
	src := &SliceSource{Keys: keys}
	for i := range src.Keys {
		src.Values = append(src.Values, binary.BigEndian.AppendUint32(nil, uint32(i)))
	}
	if err := tr.BulkLoad(src); err != nil {
		t.Fatal(err)
	}
	return tr, keys
}

// The block-wise walk must yield exactly the per-entry walk's sequence:
// its runs, concatenated in delivery order with the descending ones
// reversed, at leaf capacities 1, 2, 5 and a full page.
func TestWalkNearestMatchesPerEntryWalk(t *testing.T) { walkMatchesPerEntryWalk(t, 0) }

// The same through an 8-page pool, one frame per stripe: every leaf a
// walk releases is overwritten by the next page it (or the loader
// building the tree) misses, so a key or value borrowed from a leaf and
// used past its Release shows as a wrong sequence.
func TestWalkNearestThroughTinyPool(t *testing.T) { walkMatchesPerEntryWalk(t, 8) }

func walkMatchesPerEntryWalk(t *testing.T, poolPages int) {
	rng := rand.New(rand.NewSource(21))
	collect := func(walk func(fn func([]byte)) error) []uint32 {
		var seq []uint32
		if err := walk(func(v []byte) { seq = append(seq, binary.BigEndian.Uint32(v)) }); err != nil {
			t.Fatal(err)
		}
		return seq
	}
	for _, keyLen := range []int{1, 7, 8, 9, 16, 17, 65} {
		for _, leafCap := range []int{1, 2, 5, 0} { // 0 = whatever a 512-byte page holds
			for _, count := range []int{0, 1, 3, 43, 400} { // 43: a part-filled last leaf at every capacity above 1
				tr, keys := walkTree(t, rng, keyLen, leafCap, count, poolPages)
				queries := [][]byte{make([]byte, keyLen), bytes.Repeat([]byte{0xFF}, keyLen)} // below the first, above the last
				for i := 0; i < 12; i++ {
					q := make([]byte, keyLen)
					rng.Read(q)
					if count > 0 && i%2 == 0 { // an indexed key, or one a little off it
						copy(q, keys[rng.Intn(count)])
						q[keyLen-1] += byte(rng.Intn(3))
					}
					queries = append(queries, q)
				}
				for _, q := range queries {
					for _, n := range []int{1, 2, tr.LeafCap(), tr.LeafCap() + 1, count / 3, count, count + 7} {
						want := collect(func(fn func([]byte)) error { return walkNearestPerEntry(tr, q, n, fn) })
						got := collect(func(fn func([]byte)) error { return tr.WalkNearest(context.Background(), q, n, perEntry(t, tr, fn)) })
						if !slices.Equal(got, want) {
							t.Fatalf("keyLen=%d leafCap=%d count=%d q=%x n=%d:\n got %v\nwant %v", keyLen, leafCap, count, q, n, got, want)
						}
						if len(got) != min(n, count) {
							t.Fatalf("keyLen=%d leafCap=%d count=%d n=%d: walked %d entries", keyLen, leafCap, count, n, len(got))
						}
					}
				}
			}
		}
	}
}

// A cancelled walk stops within the leaves it has pinned — one per side
// — and a walk cancelled before it starts yields nothing.
func TestWalkNearestStopsOnCancel(t *testing.T) {
	tr, keys := walkTree(t, rand.New(rand.NewSource(22)), 16, 5, 400, 0)
	q := keys[200]

	ctx, cancel := context.WithCancel(context.Background())
	emitted, after := 0, 0
	err := tr.WalkNearest(ctx, q, 400, perEntry(t, tr, func([]byte) {
		if emitted++; emitted == 50 {
			cancel()
		} else if emitted > 50 {
			after++
		}
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled walk returned %v", err)
	}
	if after >= 2*tr.LeafCap() {
		t.Fatalf("walk yielded %d entries after the cancel, want fewer than two leaves' (%d)", after, 2*tr.LeafCap())
	}

	emitted = 0
	err = tr.WalkNearest(ctx, q, 400, perEntry(t, tr, func([]byte) { emitted++ }))
	if !errors.Is(err, context.Canceled) || emitted != 0 {
		t.Fatalf("walk under a cancelled ctx: %d entries, err %v", emitted, err)
	}
}

// The α=4096 walk of the paper's default cascade over the RDB-tree leaf
// geometry at η=16, ω=8, m=10 (the 8-byte stored key prefix, 24-byte
// values, 4 KiB pages), every page in the pool (the bulk load leaves
// them there).
func BenchmarkWalkNearest4096(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pgr, err := pager.Open(b.TempDir()+"/walk.pg", pager.Options{PoolPages: 4096, Create: true})
	if err != nil {
		b.Fatal(err)
	}
	defer pgr.Close()
	tr, err := Create(pgr, Config{KeyLen: 8, ValLen: 24})
	if err != nil {
		b.Fatal(err)
	}
	// Keys cluster the way Hilbert keys of clustered data do: a random
	// 3-byte prefix picks the cluster, the gap sizes below it vary over
	// many orders of magnitude.
	const count = 100_000
	keys := make([][]byte, count)
	for i := range keys {
		k := make([]byte, 8)
		rng.Read(k[:3])
		k[0] &= 0x0F
		rng.Read(k[3+rng.Intn(5):])
		keys[i] = k
	}
	slices.SortFunc(keys, bytes.Compare)
	val := make([]byte, 24)
	src := &SliceSource{Keys: keys}
	for range keys {
		src.Values = append(src.Values, val)
	}
	if err := tr.BulkLoad(src); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var sum int
	fn := func(run []byte, _ bool) { sum += len(run) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.WalkNearest(ctx, keys[(i*7919)%count], 4096, fn); err != nil {
			b.Fatal(err)
		}
	}
}
