package bptree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"github.com/hd-index/hdindex/internal/pager"
)

func mkTree(t testing.TB, cfg Config, opts pager.Options) (*Tree, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tree.pg")
	opts.Create = true
	pgr, err := pager.Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Create(pgr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pgr.Close() })
	return tr, path
}

func u64key(v uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, v)
	return b
}

func u64val(v uint64) []byte { return u64key(v) }

type kv struct{ k, v uint64 }

func sortedKVs(kvs []kv) ([]kv, *SliceSource) {
	s := append([]kv(nil), kvs...)
	sort.Slice(s, func(i, j int) bool { return s[i].k < s[j].k })
	src := &SliceSource{}
	for _, e := range s {
		src.Keys = append(src.Keys, u64key(e.k))
		src.Values = append(src.Values, u64val(e.v))
	}
	return s, src
}

func TestCreateValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.pg")
	pgr, err := pager.Open(path, pager.Options{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pgr.Close()
	if _, err := Create(pgr, Config{KeyLen: 0, ValLen: 8}); err == nil {
		t.Error("KeyLen=0 must fail")
	}
	if _, err := Create(pgr, Config{KeyLen: 8, ValLen: -1}); err == nil {
		t.Error("ValLen<0 must fail")
	}
	if _, err := Create(pgr, Config{KeyLen: 8, ValLen: 8, LeafCap: 100000}); err == nil {
		t.Error("huge LeafCap must fail")
	}
	if _, err := Create(pgr, Config{KeyLen: 5000, ValLen: 8}); err == nil {
		t.Error("oversized entry must fail")
	}
}

func TestBulkLoadAndScanAll(t *testing.T) {
	tr, _ := mkTree(t, Config{KeyLen: 8, ValLen: 8}, pager.Options{PageSize: 256})
	var kvs []kv
	for i := 0; i < 1000; i++ {
		kvs = append(kvs, kv{uint64(i * 3), uint64(i)})
	}
	want, src := sortedKVs(kvs)
	if err := tr.BulkLoad(src); err != nil {
		t.Fatal(err)
	}
	if tr.Count() != 1000 {
		t.Fatalf("Count = %d, want 1000", tr.Count())
	}
	if tr.height < 2 {
		t.Fatalf("height = %d, expected a multi-level tree at page size 256", tr.height)
	}
	var got []kv
	err := tr.Scan(nil, nil, func(k, v []byte) bool {
		got = append(got, kv{binary.BigEndian.Uint64(k), binary.BigEndian.Uint64(v)})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scan returned %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestBulkLoadRejectsUnsorted(t *testing.T) {
	tr, _ := mkTree(t, Config{KeyLen: 8, ValLen: 0}, pager.Options{})
	src := &SliceSource{Keys: [][]byte{u64key(5), u64key(3)}, Values: [][]byte{{}, {}}}
	if err := tr.BulkLoad(src); !errors.Is(err, ErrNotSorted) {
		t.Fatalf("err = %v, want ErrNotSorted", err)
	}
}

func TestBulkLoadEmpty(t *testing.T) {
	tr, _ := mkTree(t, Config{KeyLen: 8, ValLen: 8}, pager.Options{})
	if err := tr.BulkLoad(&SliceSource{}); err != nil {
		t.Fatal(err)
	}
	c := tr.NewCursor()
	defer c.Close()
	if err := c.First(); err != nil {
		t.Fatal(err)
	}
	if c.Valid() {
		t.Error("cursor valid on empty tree")
	}
	if err := c.Seek(u64key(1)); err != nil {
		t.Fatal(err)
	}
	if c.Valid() {
		t.Error("seek valid on empty tree")
	}
}

func TestSeekLowerBoundSemantics(t *testing.T) {
	tr, _ := mkTree(t, Config{KeyLen: 8, ValLen: 8}, pager.Options{PageSize: 256})
	var kvs []kv
	for i := 0; i < 200; i++ {
		kvs = append(kvs, kv{uint64(i*10 + 5), uint64(i)}) // keys 5,15,25,...
	}
	_, src := sortedKVs(kvs)
	if err := tr.BulkLoad(src); err != nil {
		t.Fatal(err)
	}
	c := tr.NewCursor()
	defer c.Close()
	// Exact hit.
	if err := c.Seek(u64key(45)); err != nil {
		t.Fatal(err)
	}
	if !c.Valid() || binary.BigEndian.Uint64(c.Key()) != 45 {
		t.Fatalf("Seek(45) landed on %v", c.Valid())
	}
	// Between keys: lands on next larger.
	if err := c.Seek(u64key(46)); err != nil {
		t.Fatal(err)
	}
	if !c.Valid() || binary.BigEndian.Uint64(c.Key()) != 55 {
		t.Fatalf("Seek(46) key = %d, want 55", binary.BigEndian.Uint64(c.Key()))
	}
	// Before all keys.
	if err := c.Seek(u64key(0)); err != nil {
		t.Fatal(err)
	}
	if !c.Valid() || binary.BigEndian.Uint64(c.Key()) != 5 {
		t.Fatal("Seek(0) must land on first key")
	}
	// Past all keys.
	if err := c.Seek(u64key(1e9)); err != nil {
		t.Fatal(err)
	}
	if c.Valid() {
		t.Fatal("Seek past end must be invalid")
	}
}

func TestSeekDuplicatesAcrossLeaves(t *testing.T) {
	// Small pages force a run of equal keys to span leaf boundaries; Seek
	// must land on the FIRST duplicate.
	tr, _ := mkTree(t, Config{KeyLen: 8, ValLen: 8}, pager.Options{PageSize: 128})
	var src SliceSource
	src.Keys = append(src.Keys, u64key(1))
	src.Values = append(src.Values, u64val(100))
	for i := 0; i < 50; i++ {
		src.Keys = append(src.Keys, u64key(7))
		src.Values = append(src.Values, u64val(uint64(i)))
	}
	src.Keys = append(src.Keys, u64key(9))
	src.Values = append(src.Values, u64val(200))
	if err := tr.BulkLoad(&src); err != nil {
		t.Fatal(err)
	}
	c := tr.NewCursor()
	defer c.Close()
	if err := c.Seek(u64key(7)); err != nil {
		t.Fatal(err)
	}
	if !c.Valid() || binary.BigEndian.Uint64(c.Key()) != 7 {
		t.Fatal("Seek(7) missed")
	}
	if got := binary.BigEndian.Uint64(c.Value()); got != 0 {
		t.Fatalf("Seek(7) value = %d, want first duplicate (0)", got)
	}
	// All 50 duplicates iterate in insertion order.
	for i := 0; i < 50; i++ {
		if !c.Valid() || binary.BigEndian.Uint64(c.Key()) != 7 {
			t.Fatalf("duplicate %d missing", i)
		}
		if got := binary.BigEndian.Uint64(c.Value()); got != uint64(i) {
			t.Fatalf("duplicate %d value = %d", i, got)
		}
		if err := c.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Valid() || binary.BigEndian.Uint64(c.Key()) != 9 {
		t.Fatal("iteration after duplicates broken")
	}
}

func TestCursorBidirectional(t *testing.T) {
	tr, _ := mkTree(t, Config{KeyLen: 8, ValLen: 0}, pager.Options{PageSize: 128})
	var src SliceSource
	for i := 0; i < 100; i++ {
		src.Keys = append(src.Keys, u64key(uint64(i)))
		src.Values = append(src.Values, []byte{})
	}
	if err := tr.BulkLoad(&src); err != nil {
		t.Fatal(err)
	}
	c := tr.NewCursor()
	defer c.Close()
	if err := c.Seek(u64key(50)); err != nil {
		t.Fatal(err)
	}
	left := tr.NewCursor()
	defer left.Close()
	// Walk right from 50 and left from 49.
	if err := left.Seek(u64key(50)); err != nil {
		t.Fatal(err)
	}
	if err := left.Prev(); err != nil {
		t.Fatal(err)
	}
	for want := uint64(50); want < 100; want++ {
		if !c.Valid() || binary.BigEndian.Uint64(c.Key()) != want {
			t.Fatalf("right walk at %d failed", want)
		}
		c.Next()
	}
	if c.Valid() {
		t.Fatal("right walk must end invalid")
	}
	for want := int64(49); want >= 0; want-- {
		if !left.Valid() || binary.BigEndian.Uint64(left.Key()) != uint64(want) {
			t.Fatalf("left walk at %d failed", want)
		}
		left.Prev()
	}
	if left.Valid() {
		t.Fatal("left walk must end invalid")
	}
}

func TestFirstLast(t *testing.T) {
	tr, _ := mkTree(t, Config{KeyLen: 8, ValLen: 0}, pager.Options{PageSize: 128})
	var src SliceSource
	for i := 10; i <= 90; i += 10 {
		src.Keys = append(src.Keys, u64key(uint64(i)))
		src.Values = append(src.Values, []byte{})
	}
	if err := tr.BulkLoad(&src); err != nil {
		t.Fatal(err)
	}
	c := tr.NewCursor()
	defer c.Close()
	c.First()
	if binary.BigEndian.Uint64(c.Key()) != 10 {
		t.Fatal("First broken")
	}
	c.Last()
	if binary.BigEndian.Uint64(c.Key()) != 90 {
		t.Fatal("Last broken")
	}
}

// BulkLoad writes a tree once. Through a pool far smaller than the tree
// it reads no page back and writes each page exactly once (Writes counts
// the tree pages plus the one superblock write of the final flush), the
// file holds nothing but the superblock, the leaves and the internal
// nodes — the root leaf Create allocated is the first leaf, not an
// orphan — and a loaded tree refuses a second load.
func TestBulkLoadWritesEachPageOnce(t *testing.T) {
	const leafCap = 5
	for _, count := range []int{0, 1, leafCap, leafCap + 1, 1000} {
		tr, _ := mkTree(t, Config{KeyLen: 8, ValLen: 8, LeafCap: leafCap}, pager.Options{PageSize: 256, PoolPages: 8})
		var kvs []kv
		for i := 0; i < count; i++ {
			kvs = append(kvs, kv{uint64(i / 3), uint64(i)})
		}
		_, src := sortedKVs(kvs)
		tr.pgr.ResetStats()
		if err := tr.BulkLoad(src); err != nil {
			t.Fatal(err)
		}
		st, pages := tr.pgr.Stats(), tr.pgr.PageCount()
		if st.Reads != 0 || st.Writes != pages {
			t.Fatalf("count=%d: %d page reads and %d writes for a file of %d pages, want 0 and %d", count, st.Reads, st.Writes, pages, pages)
		}
		leaves := max(1, (count+leafCap-1)/leafCap)
		internal := 0
		for n := leaves; n > 1; internal += n {
			n = (n + tr.branchCap) / (tr.branchCap + 1)
		}
		if want := uint64(1 + leaves + internal); pages != want {
			t.Fatalf("count=%d: %d pages, want 1 + %d leaves + %d internal nodes = %d", count, pages, leaves, internal, want)
		}
		if count > 0 {
			if err := tr.BulkLoad(&SliceSource{Keys: [][]byte{u64key(0)}, Values: [][]byte{u64val(0)}}); err == nil {
				t.Fatalf("count=%d: a second BulkLoad succeeded", count)
			}
		}
	}
}

func TestPersistenceReopen(t *testing.T) {
	cfg := Config{KeyLen: 8, ValLen: 8}
	path := filepath.Join(t.TempDir(), "tree.pg")
	pgr, err := pager.Open(path, pager.Options{Create: true, PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Create(pgr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var src SliceSource
	for i := 0; i < 300; i++ {
		src.Keys = append(src.Keys, u64key(uint64(i)))
		src.Values = append(src.Values, u64val(uint64(i*7)))
	}
	if err := tr.BulkLoad(&src); err != nil {
		t.Fatal(err)
	}
	if err := pgr.Close(); err != nil {
		t.Fatal(err)
	}

	pgr2, err := pager.Open(path, pager.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pgr2.Close()
	tr2, err := Open(pgr2)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Count() != 300 || tr2.KeyLen() != 8 || tr2.ValLen() != 8 {
		t.Fatalf("reopened header wrong: count=%d", tr2.Count())
	}
	c := tr2.NewCursor()
	defer c.Close()
	if err := c.Seek(u64key(123)); err != nil {
		t.Fatal(err)
	}
	if !c.Valid() || binary.BigEndian.Uint64(c.Value()) != 123*7 {
		t.Fatal("reopened tree lookup failed")
	}
}

func TestScanRange(t *testing.T) {
	tr, _ := mkTree(t, Config{KeyLen: 8, ValLen: 0}, pager.Options{PageSize: 128})
	var src SliceSource
	for i := 0; i < 100; i++ {
		src.Keys = append(src.Keys, u64key(uint64(i)))
		src.Values = append(src.Values, []byte{})
	}
	if err := tr.BulkLoad(&src); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	tr.Scan(u64key(20), u64key(29), func(k, v []byte) bool {
		got = append(got, binary.BigEndian.Uint64(k))
		return true
	})
	if len(got) != 10 || got[0] != 20 || got[9] != 29 {
		t.Fatalf("range scan = %v", got)
	}
	// Early stop.
	n := 0
	tr.Scan(nil, nil, func(k, v []byte) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop failed, n = %d", n)
	}
}

// Model-based randomized test: bulk-loaded trees over several page
// sizes, leaf capacities and entry counts — partly filled last leaves,
// runs of duplicate keys across leaf boundaries — must agree with a
// sorted slice under iteration and seeks, duplicates in load order.
func TestRandomizedAgainstModel(t *testing.T) {
	for _, pageSize := range []int{128, 256, 512} {
		for _, leafCap := range []int{1, 3, 0} { // 0 = whatever the page holds
			for _, count := range []int{0, 1, 7, 400, 701} {
				rng := rand.New(rand.NewSource(int64(pageSize + 10*leafCap + count)))
				tr, _ := mkTree(t, Config{KeyLen: 8, ValLen: 8, LeafCap: leafCap}, pager.Options{PageSize: pageSize, PoolPages: 8})
				keySpan := count/2 + 1 // about two entries per key
				var kvs []kv
				for i := 0; i < count; i++ {
					kvs = append(kvs, kv{uint64(rng.Intn(keySpan)), uint64(i)})
				}
				model, src := sortedKVs(kvs)
				if err := tr.BulkLoad(src); err != nil {
					t.Fatal(err)
				}
				where := fmt.Sprintf("ps=%d leafCap=%d count=%d", pageSize, leafCap, count)

				var got []kv
				tr.Scan(nil, nil, func(k, v []byte) bool {
					got = append(got, kv{binary.BigEndian.Uint64(k), binary.BigEndian.Uint64(v)})
					return true
				})
				if !slices.Equal(got, model) {
					t.Fatalf("%s: scan disagrees with the model:\n got %v\nwant %v", where, got, model)
				}

				// Random seeks land on the model's lower bound: the first
				// of a run of duplicates.
				for i := 0; i < 200; i++ {
					target := uint64(rng.Intn(keySpan + 2))
					c := tr.NewCursor()
					if err := c.Seek(u64key(target)); err != nil {
						t.Fatal(err)
					}
					j := sort.Search(len(model), func(i int) bool { return model[i].k >= target })
					if j == len(model) {
						if c.Valid() {
							t.Fatalf("%s: Seek(%d) should be invalid", where, target)
						}
					} else if !c.Valid() || binary.BigEndian.Uint64(c.Key()) != model[j].k || binary.BigEndian.Uint64(c.Value()) != model[j].v {
						t.Fatalf("%s: Seek(%d) wrong position", where, target)
					}
					c.Close()
				}
			}
		}
	}
}

func TestKeyValueLenValidation(t *testing.T) {
	for name, c := range map[string]struct {
		key, val []byte
		want     error
	}{
		"short key":   {[]byte{1, 2}, make([]byte, 4), ErrKeyLen},
		"short value": {u64key(1), make([]byte, 3), ErrValueLen},
	} {
		tr, _ := mkTree(t, Config{KeyLen: 8, ValLen: 4}, pager.Options{})
		src := &SliceSource{Keys: [][]byte{u64key(0), c.key}, Values: [][]byte{make([]byte, 4), c.val}}
		if err := tr.BulkLoad(src); !errors.Is(err, c.want) {
			t.Errorf("%s: BulkLoad = %v, want %v", name, err, c.want)
		}
	}
}

func TestLeafCapOverride(t *testing.T) {
	tr, _ := mkTree(t, Config{KeyLen: 8, ValLen: 8, LeafCap: 5}, pager.Options{})
	if tr.LeafCap() != 5 {
		t.Fatalf("LeafCap = %d, want 5", tr.LeafCap())
	}
	var src SliceSource
	for i := 0; i < 23; i++ {
		src.Keys = append(src.Keys, u64key(uint64(i)))
		src.Values = append(src.Values, u64val(0))
	}
	if err := tr.BulkLoad(&src); err != nil {
		t.Fatal(err)
	}
	// 23 entries at 5/leaf = 5 leaves; root must be internal.
	if tr.height < 2 {
		t.Fatal("expected multi-level tree with LeafCap=5")
	}
	n := 0
	tr.Scan(nil, nil, func(k, v []byte) bool { n++; return true })
	if n != 23 {
		t.Fatalf("scanned %d, want 23", n)
	}
}

func TestVariableLengthKeysOrderedAsBytes(t *testing.T) {
	// Hilbert keys are multi-byte; confirm byte order is respected.
	tr, _ := mkTree(t, Config{KeyLen: 4, ValLen: 0}, pager.Options{})
	keys := [][]byte{{0, 0, 0, 1}, {0, 0, 1, 0}, {0, 1, 0, 0}, {1, 0, 0, 0}}
	src := &SliceSource{Keys: keys, Values: [][]byte{{}, {}, {}, {}}}
	if err := tr.BulkLoad(src); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	tr.Scan(nil, nil, func(k, v []byte) bool {
		got = append(got, append([]byte(nil), k...))
		return true
	})
	for i := range keys {
		if !bytes.Equal(got[i], keys[i]) {
			t.Fatalf("order broken at %d", i)
		}
	}
}

func BenchmarkBulkLoad10k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		path := filepath.Join(b.TempDir(), "bl.pg")
		pgr, _ := pager.Open(path, pager.Options{Create: true})
		tr, _ := Create(pgr, Config{KeyLen: 16, ValLen: 48})
		var src SliceSource
		key := make([]byte, 16)
		for j := 0; j < 10000; j++ {
			binary.BigEndian.PutUint64(key[8:], uint64(j))
			src.Keys = append(src.Keys, append([]byte(nil), key...))
			src.Values = append(src.Values, make([]byte, 48))
		}
		b.StartTimer()
		if err := tr.BulkLoad(&src); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		pgr.Close()
	}
}

func BenchmarkSeek(b *testing.B) {
	path := filepath.Join(b.TempDir(), "seek.pg")
	pgr, _ := pager.Open(path, pager.Options{Create: true})
	defer pgr.Close()
	tr, _ := Create(pgr, Config{KeyLen: 8, ValLen: 8})
	var src SliceSource
	for j := 0; j < 100000; j++ {
		src.Keys = append(src.Keys, u64key(uint64(j)))
		src.Values = append(src.Values, u64val(uint64(j)))
	}
	if err := tr.BulkLoad(&src); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	c := tr.NewCursor()
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Seek(u64key(uint64(rng.Intn(100000))))
	}
}

// CheckLeaves passes over a bulk-loaded tree and names each way a leaf
// chain can be wrong while still scanning: a left link that does not
// point back, a key out of order, a header count that disagrees with the
// leaves.
func TestCheckLeaves(t *testing.T) {
	build := func(t *testing.T) *Tree {
		tr, _ := mkTree(t, Config{KeyLen: 8, ValLen: 8, LeafCap: 4}, pager.Options{PageSize: 512})
		var kvs []kv
		for i := uint64(0); i < 42; i++ {
			kvs = append(kvs, kv{i / 3 * 10, i}) // runs of equal keys across leaves, the last leaf half full
		}
		_, src := sortedKVs(kvs)
		if err := tr.BulkLoad(src); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	count := func(tr *Tree) (int, error) {
		n := 0
		err := tr.CheckLeaves(func(k, v []byte) error { n++; return nil })
		return n, err
	}
	tr := build(t)
	if n, err := count(tr); err != nil || n != 42 {
		t.Fatalf("healthy tree: %d entries, %v; want 42, nil", n, err)
	}
	stop := errors.New("stop")
	if err := tr.CheckLeaves(func(k, v []byte) error { return stop }); err != stop {
		t.Fatalf("the callback's error must come back, got %v", err)
	}

	// rewrite passes the second leaf on the chain to edit, for tampering,
	// and writes it back.
	rewrite := func(tr *Tree, edit func(id pager.PageID, data []byte)) {
		first, err := tr.pgr.View(tr.firstLeaf)
		if err != nil {
			t.Fatal(err)
		}
		id := leafRight(first.Data)
		first.Release()
		v, err := tr.pgr.View(id)
		if err != nil {
			t.Fatal(err)
		}
		data := bytes.Clone(v.Data)
		v.Release()
		edit(id, data)
		if err := tr.pgr.Write(id, data); err != nil {
			t.Fatal(err)
		}
	}
	for name, tamper := range map[string]func(tr *Tree){
		"left link": func(tr *Tree) {
			rewrite(tr, func(id pager.PageID, data []byte) {
				setLeafLeft(data, id) // points at itself
			})
		},
		"key order": func(tr *Tree) {
			rewrite(tr, func(_ pager.PageID, data []byte) {
				copy(tr.leafKey(data, 1), u64key(0)) // below the first leaf's keys... and its own entry 0
				tr.leafKey(data, 0)[0] = 0xff
			})
		},
		"count": func(tr *Tree) { tr.count++ },
		"last leaf": func(tr *Tree) {
			tr.lastLeaf = tr.firstLeaf
		},
	} {
		t.Run(name, func(t *testing.T) {
			tr := build(t)
			tamper(tr)
			if _, err := count(tr); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("tampered %s: CheckLeaves returned %v, want ErrCorrupt", name, err)
			}
		})
	}
}
