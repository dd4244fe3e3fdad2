package rdbtree

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"github.com/hd-index/hdindex/internal/bptree"
	"github.com/hd-index/hdindex/internal/pager"
)

// Table 3 of the paper: leaf orders from Eq. (4) at page size 4 KB.
// SIFT/Yorck/SUN/Audio match the printed table; for Enron and Glove the
// printed values (18 and 40) disagree with the paper's own Eq. (4), which
// yields 33 and 46 — we implement the equation.
func TestLeafOrderTable3(t *testing.T) {
	cases := []struct {
		name            string
		eta, omega, m   int
		want            int
		printedInTable3 int
	}{
		{"SIFT", 16, 8, 10, 63, 63},
		{"Yorck", 16, 32, 10, 36, 36},
		{"SUN", 64, 32, 10, 13, 13},
		{"Audio", 24, 32, 10, 28, 28},
		{"Enron", 37, 16, 10, 33, 18},
		{"Glove", 10, 32, 10, 46, 40},
	}
	for _, c := range cases {
		if got := LeafOrder(4096, c.eta, c.omega, c.m); got != c.want {
			t.Errorf("%s: LeafOrder = %d, want %d (table prints %d)",
				c.name, got, c.want, c.printedInTable3)
		}
	}
}

// nearest is SearchNearestInto with fresh buffers.
func nearest(tr *Tree, key []byte, alpha int) ([]Entry, error) {
	entries, _, err := tr.SearchNearestInto(context.Background(), key, alpha, nil, nil)
	return entries, err
}

// rdbPoolPages is the pool mkRDB opens its pager with (0 = default).
var rdbPoolPages int

// The search tests again through an 8-page pool, one frame per stripe:
// every leaf a search releases is overwritten by its next miss, so an
// entry decoded from a leaf after its Release shows as a wrong answer.
func TestSearchThroughTinyPool(t *testing.T) {
	rdbPoolPages = 8
	defer func() { rdbPoolPages = 0 }()
	t.Run("Centred", TestSearchNearestCentred)
	t.Run("TieGoesRight", TestSearchNearestTieGoesRight)
	t.Run("AtExtremes", TestSearchNearestAtExtremes)
	t.Run("AgainstBruteForce", TestSearchNearestAgainstBruteForce)
}

func mkRDB(t *testing.T, cfg Config, pageSize int) (*Tree, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rdb.pg")
	pgr, err := pager.Open(path, pager.Options{Create: true, PageSize: pageSize, PoolPages: rdbPoolPages})
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

// key16 is a 16-byte Hilbert key whose value v sits in the 8-byte
// prefix a tree stores; the bytes past it are zero.
func key16(v uint64) []byte {
	b := make([]byte, 16)
	binary.BigEndian.PutUint64(b, v)
	return b
}

func TestCreateUsesEquation4Order(t *testing.T) {
	// SIFT geometry: 16-byte Hilbert keys, stored as their 8-byte
	// prefix, values 4+20 B at 4 KB pages. Eq. (4), which prices the full
	// key, an 8-byte pointer and float32 distances, gives 63; the page
	// physically holds 127: 19 bytes of header and up to 7 of pad, then
	// 127 × (8 + 24) = 4 064 bytes.
	tr, _ := mkRDB(t, Config{Eta: 16, Omega: 8, M: 10}, 4096)
	if got := LeafOrder(4096, 16, 8, 10); got != 63 {
		t.Fatalf("Eq. (4) order = %d, want 63", got)
	}
	if tr.LeafOrder() != 127 {
		t.Fatalf("leaf order = %d, want 127", tr.LeafOrder())
	}
}

// within reports whether a decoded distance lies within the tree's
// error bound of the distance it was written for.
func within(tr *Tree, got, want float32) bool {
	return math.Abs(float64(got)-float64(want)) <= tr.Scale().Eps
}

func TestBulkLoadAndScan(t *testing.T) {
	cfg := Config{Eta: 16, Omega: 8, M: 3}
	tr, _ := mkRDB(t, cfg, 512)
	var recs []Record
	for i := 0; i < 500; i++ {
		recs = append(recs, Record{
			Key:      key16(uint64(i * 7)),
			ID:       uint64(i),
			RefDists: []float32{float32(i), float32(i) * 2, float32(i) * 3},
		})
	}
	if err := tr.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	if tr.Count() != 500 {
		t.Fatalf("Count = %d", tr.Count())
	}
	i := 0
	tr.ScanAll(func(k []byte, e Entry) bool {
		if e.ID != uint64(i) {
			t.Fatalf("pos %d id = %d", i, e.ID)
		}
		if !within(tr, e.RefDists[1], float32(i)*2) {
			t.Fatalf("pos %d refdists = %v", i, e.RefDists)
		}
		i++
		return true
	})
	if i != 500 {
		t.Fatalf("scanned %d", i)
	}
}

func TestBulkLoadWrongRefDistLen(t *testing.T) {
	tr, _ := mkRDB(t, Config{Eta: 16, Omega: 8, M: 3}, 512)
	err := tr.BulkLoad([]Record{{Key: key16(1), ID: 0, RefDists: []float32{1}}})
	if err == nil {
		t.Fatal("wrong refdist length must fail")
	}
}

func TestSearchNearestCentred(t *testing.T) {
	cfg := Config{Eta: 16, Omega: 8, M: 2}
	tr, _ := mkRDB(t, cfg, 512)
	var recs []Record
	for i := 0; i < 100; i++ {
		recs = append(recs, Record{Key: key16(uint64(i * 10)), ID: uint64(i), RefDists: []float32{0, 0}})
	}
	if err := tr.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	// Query key 497 sits between ids 49 (490) and 50 (500); nearest 6 by
	// key distance: 500(3), 490(7), 510(13), 480(17), 520(23), 470(27).
	got, err := nearest(tr, key16(497), 6)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{50, 49, 51, 48, 52, 47}
	if len(got) != len(want) {
		t.Fatalf("got %d entries", len(got))
	}
	for i, e := range got {
		if e.ID != want[i] {
			t.Fatalf("pos %d id = %d, want %d (all %v)", i, e.ID, want[i], got)
		}
	}
}

func TestSearchNearestTieGoesRight(t *testing.T) {
	cfg := Config{Eta: 16, Omega: 8, M: 1}
	tr, _ := mkRDB(t, cfg, 512)
	recs := []Record{
		{Key: key16(90), ID: 1, RefDists: []float32{0}},
		{Key: key16(110), ID: 2, RefDists: []float32{0}},
	}
	if err := tr.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	got, err := nearest(tr, key16(100), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("tie must go right, got %v", got)
	}
}

func TestSearchNearestAtExtremes(t *testing.T) {
	cfg := Config{Eta: 16, Omega: 8, M: 1}
	tr, _ := mkRDB(t, cfg, 512)
	var recs []Record
	for i := 0; i < 50; i++ {
		recs = append(recs, Record{Key: key16(uint64(1000 + i)), ID: uint64(i), RefDists: []float32{0}})
	}
	if err := tr.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	// Before all keys.
	got, err := nearest(tr, key16(0), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].ID != 0 || got[1].ID != 1 || got[2].ID != 2 {
		t.Fatalf("before-all = %+v", got)
	}
	// After all keys.
	got, err = nearest(tr, key16(99999), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].ID != 49 || got[1].ID != 48 || got[2].ID != 47 {
		t.Fatalf("after-all = %+v", got)
	}
	// Alpha larger than the tree returns everything.
	got, err = nearest(tr, key16(1025), 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("alpha>n returned %d", len(got))
	}
}

// Property: SearchNearest returns exactly the alpha keys nearest to the
// query key, matching a brute-force sort.
func TestSearchNearestAgainstBruteForce(t *testing.T) {
	cfg := Config{Eta: 16, Omega: 8, M: 1}
	tr, _ := mkRDB(t, cfg, 512)
	rng := rand.New(rand.NewSource(13))
	keys := make([]uint64, 0, 300)
	seen := map[uint64]bool{}
	var recs []Record
	for len(keys) < 300 {
		k := uint64(rng.Intn(1 << 20))
		if seen[k] {
			continue
		}
		seen[k] = true
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for i, k := range keys {
		recs = append(recs, Record{Key: key16(k), ID: uint64(i), RefDists: []float32{0}})
	}
	if err := tr.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	absDiff := func(a, b uint64) uint64 {
		if a > b {
			return a - b
		}
		return b - a
	}
	for trial := 0; trial < 50; trial++ {
		q := uint64(rng.Intn(1 << 20))
		alpha := rng.Intn(20) + 1
		got, err := nearest(tr, key16(q), alpha)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force: sort ids by |key - q|.
		idx := make([]int, len(keys))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			da, db := absDiff(keys[idx[a]], q), absDiff(keys[idx[b]], q)
			if da != db {
				return da < db
			}
			return keys[idx[a]] > keys[idx[b]] // tie: right side first
		})
		if len(got) != alpha {
			t.Fatalf("got %d, want %d", len(got), alpha)
		}
		for i := 0; i < alpha; i++ {
			if got[i].ID != uint64(idx[i]) {
				t.Fatalf("trial %d pos %d: id %d, want %d (q=%d)", trial, i, got[i].ID, idx[i], q)
			}
		}
	}
}

func TestPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.pg")
	pgr, err := pager.Open(path, pager.Options{Create: true, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Eta: 16, Omega: 8, M: 4}
	tr, err := Create(pgr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for i := 0; i < 100; i++ {
		recs = append(recs, Record{Key: key16(uint64(i)), ID: uint64(i), RefDists: []float32{1, 2, 3, 4}})
	}
	if err := tr.BulkLoad(recs); err != nil {
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
	if tr2.Config() != cfg {
		t.Fatalf("config = %+v, want %+v", tr2.Config(), cfg)
	}
	got, err := nearest(tr2, key16(42), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].ID != 42 || !within(tr2, got[0].RefDists[3], 4) || tr2.Scale() != tr.Scale() {
		t.Fatalf("reopened search = %+v", got[0])
	}
}

func TestCreateValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.pg")
	pgr, err := pager.Open(path, pager.Options{Create: true, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer pgr.Close()
	if _, err := Create(pgr, Config{Eta: 0, Omega: 8, M: 1}); err == nil {
		t.Error("eta=0 must fail")
	}
	if _, err := Create(pgr, Config{Eta: 4, Omega: 40, M: 1}); err == nil {
		t.Error("omega>32 must fail")
	}
	if _, err := Create(pgr, Config{Eta: 4, Omega: 8, M: 0}); err == nil {
		t.Error("m=0 must fail")
	}
	// Entry too large for the page: its 8-byte key prefix and 604 bytes
	// of value.
	if _, err := Create(pgr, Config{Eta: 64, Omega: 32, M: 300}); err == nil {
		t.Error("oversized entry must fail")
	}
}

func TestSearchEmptyTree(t *testing.T) {
	tr, _ := mkRDB(t, Config{Eta: 16, Omega: 8, M: 1}, 512)
	if err := tr.Flush(); err != nil { // writes the empty root leaf
		t.Fatal(err)
	}
	got, err := nearest(tr, key16(5), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty tree returned %v", got)
	}
	if _, err := nearest(tr, key16(5), 0); err == nil {
		t.Fatal("alpha=0 must fail")
	}
}

// A run the CPU cannot view in place — misaligned here, big-endian
// elsewhere — decodes into scratch to the same words, slot halves and
// all; an aligned one is viewed, where the CPU allows it, without a copy.
func TestViewRunDecodesWhatItCannotView(t *testing.T) {
	words := []uint16{7, 1, 15, math.MaxUint16, 0}
	buf := make([]byte, 1+2*len(words)+7)
	for _, off := range []int{0, 1} {
		run := buf[off : off+2*len(words)]
		for i, w := range words {
			binary.LittleEndian.PutUint16(run[2*i:], w)
		}
		got, scratch := viewRun(run, nil)
		if !slices.Equal(got, words) {
			t.Fatalf("offset %d: %v, want %v", off, got, words)
		}
		if off == 1 && &got[0] != &scratch[0] {
			t.Fatal("a misaligned run was not decoded into the scratch")
		}
		if Slot(got) != 1<<16|7 {
			t.Fatalf("offset %d: slot %d, want %d", off, Slot(got), 1<<16|7)
		}
	}
}

// setExtra rewrites the metadata of the tree at path in place.
func setExtra(t *testing.T, path string, extra []byte) {
	t.Helper()
	pgr, err := pager.Open(path, pager.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pgr.Close()
	bt, err := bptree.Open(pgr)
	if err != nil {
		t.Fatal(err)
	}
	if err := bt.SetExtra(extra); err != nil {
		t.Fatal(err)
	}
	if err := bt.Flush(); err != nil {
		t.Fatal(err)
	}
}

// Open takes a tree's scale and error bound from its metadata only when
// they can code a distance: s positive and finite, ε non-negative and
// finite. Anything else — or metadata cut short — is an error, never a
// tree whose bounds are NaN or infinite.
func TestOpenRejectsBadScale(t *testing.T) {
	tr, path := mkRDB(t, Config{Eta: 16, Omega: 8, M: 2}, 512)
	if err := tr.BulkLoad([]Record{{Key: key16(1), ID: 3, RefDists: []float32{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Pager().Close(); err != nil {
		t.Fatal(err)
	}
	good := make([]byte, extraLen)
	for i, v := range []uint32{16, 8, 2} {
		binary.BigEndian.PutUint32(good[4*i:], v)
	}
	with := func(s, eps float64) []byte {
		b := slices.Clone(good)
		binary.BigEndian.PutUint64(b[12:], math.Float64bits(s))
		binary.BigEndian.PutUint64(b[20:], math.Float64bits(eps))
		return b
	}
	open := func(extra []byte) (*Tree, error) {
		setExtra(t, path, extra)
		pgr, err := pager.Open(path, pager.Options{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pgr.Close() })
		return Open(pgr)
	}
	if got, err := open(with(0.5, 0.25)); err != nil || got.Scale() != (Scale{0.5, 0.25}) {
		t.Fatalf("a valid scale: %v, %v", got, err)
	}
	bad := map[string][]byte{
		"s = 0":         with(0, 0.25),
		"s < 0":         with(-1, 0.25),
		"s NaN":         with(math.NaN(), 0.25),
		"s infinite":    with(math.Inf(1), 0.25),
		"ε < 0":         with(0.5, -1),
		"ε NaN":         with(0.5, math.NaN()),
		"ε infinite":    with(0.5, math.Inf(1)),
		"no scale":      good[:12],
		"half a scale":  good[:20],
		"no metadata":   nil,
		"trailing byte": append(with(0.5, 0.25), 0),
	}
	for name, extra := range bad {
		if _, err := open(extra); err == nil {
			t.Errorf("%s: Open accepted the tree", name)
		}
	}
}

// A tree of the float32 layout — values of a 4-byte slot and m float32
// distances, metadata η, ω, m — is bptree.ErrOldLayout to Open, for core
// to rebuild.
func TestOpenRefusesFloat32Layout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f32.pg")
	pgr, err := pager.Open(path, pager.Options{Create: true, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer pgr.Close()
	bt, err := bptree.Create(pgr, bptree.Config{KeyLen: 16, ValLen: 4 + 4*2})
	if err != nil {
		t.Fatal(err)
	}
	extra := make([]byte, 12)
	for i, v := range []uint32{16, 8, 2} {
		binary.BigEndian.PutUint32(extra[4*i:], v)
	}
	if err := bt.SetExtra(extra); err != nil {
		t.Fatal(err)
	}
	if err := bt.Flush(); err != nil { // writes the empty root leaf
		t.Fatal(err)
	}
	if _, err := Open(pgr); !errors.Is(err, bptree.ErrOldLayout) {
		t.Fatalf("Open of a float32 tree: %v, want bptree.ErrOldLayout", err)
	}
}

// A tree of the full-key layout — bptree keys the whole 16-byte Hilbert
// key, beside today's values and metadata, scale included — is
// bptree.ErrOldLayout to Open, for core to rebuild. A tree whose Hilbert
// key is 8 bytes stores it whole, in the same layout as before, and
// opens.
func TestOpenRefusesFullKeyLayout(t *testing.T) {
	write := func(cfg Config, keyLen int) *pager.Pager {
		pgr, err := pager.Open(filepath.Join(t.TempDir(), "full.pg"), pager.Options{Create: true, PageSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pgr.Close() })
		bt, err := bptree.Create(pgr, bptree.Config{KeyLen: keyLen, ValLen: cfg.ValLen()})
		if err != nil {
			t.Fatal(err)
		}
		extra := make([]byte, extraLen)
		for i, v := range []int{cfg.Eta, cfg.Omega, cfg.M} {
			binary.BigEndian.PutUint32(extra[4*i:], uint32(v))
		}
		binary.BigEndian.PutUint64(extra[12:], math.Float64bits(0.5))
		binary.BigEndian.PutUint64(extra[20:], math.Float64bits(0.25))
		if err := bt.SetExtra(extra); err != nil {
			t.Fatal(err)
		}
		src := &bptree.SliceSource{}
		for i := range 20 {
			src.Keys = append(src.Keys, slices.Concat(make([]byte, keyLen-1), []byte{byte(i)}))
			src.Values = append(src.Values, make([]byte, cfg.ValLen()))
		}
		if err := bt.BulkLoad(src); err != nil {
			t.Fatal(err)
		}
		return pgr
	}
	full := Config{Eta: 16, Omega: 8, M: 2}
	if _, err := Open(write(full, full.KeyLen())); !errors.Is(err, bptree.ErrOldLayout) {
		t.Fatalf("Open of a tree with %d-byte keys: %v, want bptree.ErrOldLayout", full.KeyLen(), err)
	}
	word := Config{Eta: 8, Omega: 8, M: 2}
	if tr, err := Open(write(word, word.KeyLen())); err != nil || tr.Count() != 20 {
		t.Fatalf("Open of a tree with %d-byte keys: %v", word.KeyLen(), err)
	}
}

// keyWith is a 16-byte Hilbert key: prefix in the 8 bytes a tree
// stores, suffix in the 8 it cuts.
func keyWith(prefix, suffix uint64) []byte {
	b := binary.BigEndian.AppendUint64(nil, prefix)
	return binary.BigEndian.AppendUint64(b, suffix)
}

// The walk compares stored prefixes only. Two keys equal in their first
// 8 bytes and different after them tie, and so does a pair equally far
// from the query's prefix on either side, however the cut bytes would
// have ordered it: the right side goes first.
func TestSearchNearestTiesOnStoredPrefix(t *testing.T) {
	tr, _ := mkRDB(t, Config{Eta: 16, Omega: 8, M: 1}, 512)
	recs := []Record{
		{Key: keyWith(5, math.MaxUint64), ID: 1, RefDists: []float32{0}},
		{Key: keyWith(7, 1), ID: 2, RefDists: []float32{0}},
		{Key: keyWith(7, 2), ID: 3, RefDists: []float32{0}},
	}
	if err := tr.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		q    []byte
		want []uint64
	}{
		// By the full key, id 1 lies 1 below the query and id 2 2^64 above.
		{"either side", keyWith(6, 0), []uint64{2, 3, 1}},
		// By the full key, id 3 is the query itself.
		{"equal prefixes", keyWith(7, 2), []uint64{2, 3, 1}},
	} {
		got, err := nearest(tr, c.q, 3)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]uint64, len(got))
		for i, e := range got {
			ids[i] = e.ID
		}
		if !slices.Equal(ids, c.want) {
			t.Errorf("%s: walk order %v, want %v", c.name, ids, c.want)
		}
	}
}

// A query key must be the tree's full Hilbert key width: any other width
// is an error from WalkNearest and SearchNearestInto, never a panic or a
// walk over a silently cut key.
func TestWalkRejectsWrongKeyWidth(t *testing.T) {
	for _, cfg := range []Config{{Eta: 16, Omega: 8, M: 1}, {Eta: 4, Omega: 8, M: 1}} {
		tr, _ := mkRDB(t, cfg, 512)
		kl := cfg.KeyLen()
		var recs []Record
		for i := range 50 {
			k := make([]byte, kl)
			k[0] = byte(i)
			recs = append(recs, Record{Key: k, ID: uint64(i), RefDists: []float32{0}})
		}
		if err := tr.BulkLoad(recs); err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, kl - 1, kl + 1, 2 * kl} {
			key := make([]byte, n)
			if n > 0 {
				key[0] = 25
			}
			err := tr.WalkNearest(context.Background(), key, 5, func([]uint16, bool) {})
			if err == nil {
				t.Errorf("%d-byte tree keys: WalkNearest of a %d-byte key succeeded", kl, n)
			}
			if _, err := nearest(tr, key, 5); err == nil {
				t.Errorf("%d-byte tree keys: SearchNearestInto of a %d-byte key succeeded", kl, n)
			}
		}
	}
}
