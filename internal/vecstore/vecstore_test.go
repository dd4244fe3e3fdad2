package vecstore

import (
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/hd-index/hdindex/internal/pager"
	"github.com/hd-index/hdindex/internal/vecmath"
)

func mkStore(t testing.TB, dim, pageSize int) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "vecs.pg")
	pgr, err := pager.Open(path, pager.Options{Create: true, PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Create(pgr, dim)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pgr.Close() })
	return s, path
}

// push appends vecs and commits them, as core's compaction does.
func push(s *Store, vecs [][]float32) error {
	if err := s.AppendAll(vecs); err != nil {
		return err
	}
	s.SetCount(s.Count() + uint64(len(vecs)))
	return nil
}

func randVecs(rng *rand.Rand, n, dim int) [][]float32 {
	vecs := make([][]float32, n)
	for i := range vecs {
		v := make([]float32, dim)
		for d := range v {
			v[d] = rng.Float32()*200 - 100
		}
		vecs[i] = v
	}
	return vecs
}

// Appends in batches of 1, 2, 3, ... records, each continuing the page
// the last one ended in, read back as they went in.
func TestAppendGetRoundTrip(t *testing.T) {
	s, _ := mkStore(t, 8, 256)
	rng := rand.New(rand.NewSource(1))
	vecs := randVecs(rng, 100, 8)
	for lo, n := 0, 1; lo < len(vecs); lo, n = lo+n, n+1 {
		hi := min(lo+n, len(vecs))
		if err := s.AppendAll(vecs[lo:hi]); err != nil {
			t.Fatal(err)
		}
		if s.Count() != uint64(lo) {
			t.Fatalf("count = %d after writing records past %d, before SetCount", s.Count(), lo)
		}
		s.SetCount(uint64(hi) + 100)
		if err := s.Validate(); !errors.Is(err, ErrHeader) {
			t.Fatalf("a count pages past the written records: %v, want ErrHeader", err)
		}
		s.SetCount(uint64(hi))
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		if s.Count() != uint64(hi) {
			t.Fatalf("count = %d after appending records up to %d", s.Count(), hi)
		}
	}
	for i, want := range vecs {
		got, err := s.Get(uint64(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("vec %d dim %d = %v, want %v", i, d, got[d], want[d])
			}
		}
	}
}

// Vectors larger than a page must span pages correctly (Enron: ν=1369,
// 5476 bytes > 4096-byte pages).
func TestVectorSpanningPages(t *testing.T) {
	s, _ := mkStore(t, 100, 128) // 400-byte records on 128-byte pages
	rng := rand.New(rand.NewSource(2))
	vecs := randVecs(rng, 20, 100)
	if err := s.BuildFrom(vecs); err != nil {
		t.Fatal(err)
	}
	dst := make([]float32, 100)
	for i, want := range vecs {
		got, err := s.Get(uint64(i), dst)
		if err != nil {
			t.Fatal(err)
		}
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("vec %d dim %d mismatch", i, d)
			}
		}
	}
}

func TestPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.pg")
	pgr, err := pager.Open(path, pager.Options{Create: true, PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Create(pgr, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	vecs := randVecs(rng, 33, 4)
	if err := s.BuildFrom(vecs); err != nil {
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
	s2, err := Open(pgr2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Dim() != 4 || s2.Count() != 33 {
		t.Fatalf("reopened dim=%d count=%d", s2.Dim(), s2.Count())
	}
	got, err := s2.Get(32, nil)
	if err != nil {
		t.Fatal(err)
	}
	for d := range got {
		if got[d] != vecs[32][d] {
			t.Fatal("content mismatch after reopen")
		}
	}
}

func TestErrors(t *testing.T) {
	s, _ := mkStore(t, 4, 256)
	if err := s.AppendAll([][]float32{{1}}); !errors.Is(err, ErrDim) {
		t.Error("short vector must fail")
	}
	if _, err := s.Get(0, nil); !errors.Is(err, ErrBadID) {
		t.Error("get from empty store must fail")
	}
	if err := push(s, [][]float32{{1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(1, nil); !errors.Is(err, ErrBadID) {
		t.Error("out of range id must fail")
	}
	if _, err := s.Get(0, make([]float32, 3)); !errors.Is(err, ErrDim) {
		t.Error("wrong dst length must fail")
	}
	if err := s.BuildFrom([][]float32{{1}}); !errors.Is(err, ErrDim) {
		t.Error("BuildFrom wrong dim must fail")
	}
}

func TestCreateValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.pg")
	pgr, err := pager.Open(path, pager.Options{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pgr.Close()
	if _, err := Create(pgr, 0); err == nil {
		t.Error("dim=0 must fail")
	}
}

// Random reads must cost at least one physical page access when the pool
// is cold — the property Fig. 8 query-time measurements rely on.
func TestReadCountsIO(t *testing.T) {
	path := filepath.Join(t.TempDir(), "io.pg")
	pgr, err := pager.Open(path, pager.Options{Create: true, PageSize: 256, DisableLRU: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pgr.Close()
	s, err := Create(pgr, 16) // 64-byte records, 4 per page
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	if err := s.BuildFrom(randVecs(rng, 64, 16)); err != nil {
		t.Fatal(err)
	}
	pgr.ResetStats()
	for i := 0; i < 10; i++ {
		if _, err := s.Get(uint64(rng.Intn(64)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := pgr.Stats(); st.Reads < 10 {
		t.Fatalf("expected >= 10 physical reads with cache off, got %d", st.Reads)
	}
}

func BenchmarkGet128(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.pg")
	pgr, _ := pager.Open(path, pager.Options{Create: true})
	defer pgr.Close()
	s, _ := Create(pgr, 128)
	rng := rand.New(rand.NewSource(5))
	vecs := randVecs(rng, 1000, 128)
	s.BuildFrom(vecs)
	dst := make([]float32, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(uint64(i%1000), dst)
	}
}

// GetView must hand back exactly the bytes Get decodes, zero-copy, for
// every record that fits in one page.
func TestGetViewMatchesGet(t *testing.T) {
	const dim, n = 16, 50 // 64-byte records, 4 per 256-byte page: never spans
	pgr, err := pager.Open(filepath.Join(t.TempDir(), "v.pg"), pager.Options{Create: true, PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer pgr.Close()
	s, err := Create(pgr, dim)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	vecs := make([][]float32, n)
	for i := range vecs {
		v := make([]float32, dim)
		for d := range v {
			v[d] = rng.Float32()*2 - 1
		}
		vecs[i] = v
	}
	if err := s.BuildFrom(vecs); err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < n; id++ {
		view, ok := s.GetView(id)
		if !ok {
			t.Fatalf("GetView(%d) not ok for a non-spanning record", id)
		}
		got, err := s.Get(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		for d := range got {
			if view.Vec[d] != got[d] {
				t.Fatalf("id %d dim %d: view %v != get %v", id, d, view.Vec[d], got[d])
			}
		}
		view.Release()
	}
	// Out-of-range ids fall back (ok=false) rather than erroring.
	if _, ok := s.GetView(n); ok {
		t.Fatal("GetView past count must report ok=false")
	}
}

// Records that straddle a page boundary must decline the view and leave
// the caller on the (correct) copying path.
func TestGetViewSpanningRecordFallsBack(t *testing.T) {
	const dim = 60 // 240-byte records in 256-byte pages: most straddle
	pgr, err := pager.Open(filepath.Join(t.TempDir(), "s.pg"), pager.Options{Create: true, PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer pgr.Close()
	s, err := Create(pgr, dim)
	if err != nil {
		t.Fatal(err)
	}
	vecs := make([][]float32, 10)
	for i := range vecs {
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(i*dim + d)
		}
		vecs[i] = v
	}
	if err := s.BuildFrom(vecs); err != nil {
		t.Fatal(err)
	}
	sawFallback := false
	for id := uint64(0); id < 10; id++ {
		view, ok := s.GetView(id)
		want, err := s.Get(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			sawFallback = true
			continue
		}
		for d := range want {
			if view.Vec[d] != want[d] {
				t.Fatalf("id %d dim %d: view %v != get %v", id, d, view.Vec[d], want[d])
			}
		}
		view.Release()
	}
	if !sawFallback {
		t.Fatal("expected at least one page-spanning record to decline the view")
	}
}

// mkVec is a dim-long vector determined by seed.
func mkVec(dim int, seed int64) []float32 {
	return randVecs(rand.New(rand.NewSource(seed)), 1, dim)[0]
}

// A cursor computes the same distances as DistSqBound over Get, pins a
// page once for all the consecutive reads that fall on it, and falls back
// to Get for records the pool cannot lend in place.
func TestCursorPinsEachPageOnce(t *testing.T) {
	const dim, n = 16, 40 // 64-byte records, 4 per 256-byte page
	s, _ := mkStore(t, dim, 256)
	for id := 0; id < n; id++ {
		if err := push(s, [][]float32{mkVec(dim, int64(id))}); err != nil {
			t.Fatal(err)
		}
	}
	q := mkVec(dim, 99)
	// Ascending with gaps and a repeat: ids 0,1,3 share page 1; 4 and 4
	// again page 2; 17,18 page 5; 39 page 10.
	ids := []uint64{0, 1, 3, 4, 4, 17, 18, 39}
	s.Pager().ResetStats()
	cur := s.Cursor()
	for _, id := range ids {
		want := vecmath.DistSq(q, mkVec(dim, int64(id)))
		if got, full, err := cur.DistSqBound(id, q, math.Inf(1), nil); err != nil || !full || got != want {
			t.Fatalf("record %d: (%v, %v, %v), want (%v, true, nil)", id, got, full, err, want)
		}
	}
	if st := s.Pager().Stats(); st.Hits+st.Misses != 4 {
		t.Fatalf("8 reads over 4 pages made %d page requests, want 4", st.Hits+st.Misses)
	}
	if _, _, err := cur.DistSqBound(n, q, math.Inf(1), nil); !errors.Is(err, ErrBadID) {
		t.Fatalf("a record past the end: %v, want ErrBadID", err)
	}
	cur.Close()
	cur.Close()                       // idempotent
	requireSameDist(t, &cur, s, 2, q) // a closed cursor is usable again
	cur.Close()

	// dim 24 = 96-byte records over 256-byte pages: record 2 spans.
	s2, _ := mkStore(t, 24, 256)
	for id := 0; id < 6; id++ {
		if err := push(s2, [][]float32{mkVec(24, int64(id))}); err != nil {
			t.Fatal(err)
		}
	}
	cur2 := s2.Cursor()
	defer cur2.Close()
	for id := uint64(0); id < 6; id++ {
		requireSameDist(t, &cur2, s2, id, mkVec(24, 98))
	}
}

// requireSameDist checks the cursor's bounded distance to record id
// against vecmath.DistSqBound over Get's decode, bit for bit, at bounds
// that complete, abandon early and abandon late.
func requireSameDist(t *testing.T, cur *Cursor, s *Store, id uint64, q []float32) {
	t.Helper()
	v, err := s.Get(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	full := vecmath.DistSq(q, v)
	for _, bound := range []float64{math.Inf(1), full, full / 2, 0} {
		wd, wok := vecmath.DistSqBound(q, v, bound)
		gd, gok, err := cur.DistSqBound(id, q, bound, make([]float32, s.Dim()))
		if err != nil || gok != wok || math.Float64bits(gd) != math.Float64bits(wd) {
			t.Fatalf("record %d, bound %v: cursor (%v, %v, %v), DistSqBound over Get (%v, %v)", id, bound, gd, gok, err, wd, wok)
		}
	}
}

// intVecs are n dim-long vectors of integers in [0,255].
func intVecs(rng *rand.Rand, n, dim int) [][]float32 {
	vecs := make([][]float32, n)
	for i := range vecs {
		vecs[i] = make([]float32, dim)
		for d := range vecs[i] {
			vecs[i][d] = float32(rng.Intn(256))
		}
	}
	return vecs
}

// Integer-valued vectors become byte records, appends go to a float32
// tail that starts at the next 4-byte boundary, and every read path —
// Get, the cursor, a reopen — returns the values that went in, records
// that span pages included.
func TestByteBaseAndFloatTail(t *testing.T) {
	const dim, base = 13, 40 // 13-byte records: the tail starts at 520, some span 256-byte pages
	s, path := mkStore(t, dim, 256)
	rng := rand.New(rand.NewSource(6))
	want := intVecs(rng, base, dim)
	if err := s.BuildBase(want); err != nil {
		t.Fatal(err)
	}
	if s.Base() != base {
		t.Fatalf("base %d after BuildBase over integers, want %d", s.Base(), base)
	}
	tail := randVecs(rng, 9, dim) // not integers
	if err := push(s, tail[:5]); err != nil {
		t.Fatal(err)
	}
	for _, v := range tail[5:] {
		if err := push(s, [][]float32{v}); err != nil {
			t.Fatal(err)
		}
	}
	want = append(want, tail...)
	if got := s.Format(); got != "40 × 13 B byte records + 9 × 52 B float32 tail" {
		t.Fatalf("Format() = %q", got)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(s.Pager().Meta()) != 20 {
		t.Fatalf("a byte base's header is %d bytes, want 20", len(s.Pager().Meta()))
	}
	s.SetCount(base - 1)
	if err := s.Validate(); !errors.Is(err, ErrHeader) {
		t.Fatalf("a count below the byte base: %v, want ErrHeader", err)
	}
	s.SetCount(uint64(len(want)))
	if err := s.BuildBase(want[:1]); err == nil {
		t.Fatal("BuildBase on a non-empty store must fail")
	}

	pgr, err := pager.Open(path, pager.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pgr.Close()
	re, err := Open(pgr)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*Store{s, re} {
		if st.Base() != base || st.Count() != uint64(len(want)) {
			t.Fatalf("base %d, count %d; want %d, %d", st.Base(), st.Count(), base, len(want))
		}
		cur := st.Cursor()
		q := randVecs(rng, 1, dim)[0]
		spans := 0
		for id := range want {
			got, err := st.Get(uint64(id), nil)
			if err != nil {
				t.Fatal(err)
			}
			for d := range got {
				if got[d] != want[id][d] {
					t.Fatalf("record %d dim %d = %v, want %v", id, d, got[d], want[id][d])
				}
			}
			if first, last := st.Span(uint64(id)); first != last {
				spans++
			}
			requireSameDist(t, &cur, st, uint64(id), q)
			if v, ok := st.GetView(uint64(id)); ok {
				if id < base {
					t.Fatalf("GetView lent byte record %d as float32s", id)
				}
				v.Release()
			}
		}
		cur.Close()
		if spans == 0 {
			t.Fatal("no record spans a page: the fallback went untested")
		}
	}
}

// Data that does not round-trip through a byte stays float32, with the
// 12-byte header every store had before byte records.
func TestBuildBaseKeepsFloatsWhenTheyDoNotRoundTrip(t *testing.T) {
	for name, vecs := range map[string][][]float32{
		"fraction": {{1, 2.5}, {3, 4}},
		"negative": {{1, -1}, {3, 4}},
		"above":    {{1, 256}, {3, 4}},
		"nan":      {{1, float32(math.NaN())}, {3, 4}},
	} {
		s, _ := mkStore(t, 2, 256)
		if err := s.BuildBase(vecs); err != nil {
			t.Fatal(err)
		}
		if s.Base() != 0 || len(s.Pager().Meta()) != 12 {
			t.Fatalf("%s: base %d, %d-byte header; want 0, 12", name, s.Base(), len(s.Pager().Meta()))
		}
	}
}

// Open refuses headers the file cannot back.
func TestOpenRejectsHeaders(t *testing.T) {
	s, path := mkStore(t, 8, 256)
	if err := s.BuildBase(intVecs(rand.New(rand.NewSource(7)), 64, 8)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	header, data := storeParts(t, path)
	bad := map[string][]byte{
		"short":         header[:11],
		"between":       header[:16],
		"dim 0":         append([]byte{0, 0, 0, 0}, header[4:]...),
		"base > count":  append(header[:12:12], 0, 0, 0, 0, 0, 0, 0, 65),
		"count > pages": append(append([]byte{}, header[:4]...), 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 64),
	}
	for name, h := range bad {
		if _, err := Open(writeStoreFile(t, h, data)); !errors.Is(err, ErrHeader) {
			t.Errorf("%s: Open = %v, want ErrHeader", name, err)
		}
	}
	if _, err := Open(writeStoreFile(t, header, data)); err != nil {
		t.Fatalf("the intact header: %v", err)
	}
}

// writeStoreFile lays header and data out as a structurally valid pager
// file, so the bytes reach the store's own decoder, and returns it open.
func writeStoreFile(t testing.TB, header, data []byte) *pager.Pager {
	t.Helper()
	pgr, err := pager.Open(filepath.Join(t.TempDir(), "v.pg"), pager.Options{Create: true, PageSize: 256, PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pgr.Close() })
	for len(data) > 0 {
		buf := make([]byte, pgr.PageSize())
		data = data[copy(buf, data):]
		if err := pgr.Write(pager.PageID(pgr.PageCount()), buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := pgr.SetMeta(header); err != nil {
		t.Skip("header does not fit a superblock")
	}
	return pgr
}

// storeParts reads back what writeStoreFile takes: the header and the
// data region.
func storeParts(t testing.TB, path string) (header, data []byte) {
	t.Helper()
	pgr, err := pager.Open(path, pager.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pgr.Close()
	for id := uint64(1); id < pgr.PageCount(); id++ {
		v, err := pgr.View(pager.PageID(id))
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, v.Data...)
		v.Release()
	}
	return pgr.Meta(), data
}

// FuzzStoreHeader feeds the store's header and data region arbitrary
// bytes: Open answers with ErrHeader or with a store whose every record
// decodes, through Get and the cursor alike, to the same distances —
// never a panic, never a read past the file. Seeded from the files the
// tests above write: a byte base with a float32 tail, and a plain
// float32 store.
func FuzzStoreHeader(f *testing.F) {
	rng := rand.New(rand.NewSource(8))
	s, path := mkStore(f, 13, 256)
	if err := s.BuildBase(intVecs(rng, 40, 13)); err != nil {
		f.Fatal(err)
	}
	if err := push(s, randVecs(rng, 9, 13)); err != nil {
		f.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		f.Fatal(err)
	}
	header, data := storeParts(f, path)
	plain, plainPath := mkStore(f, 24, 256)
	if err := plain.BuildFrom(randVecs(rng, 6, 24)); err != nil {
		f.Fatal(err)
	}
	if err := plain.Flush(); err != nil {
		f.Fatal(err)
	}
	plainHeader, plainData := storeParts(f, plainPath)
	f.Add(header, data)
	f.Add(header, data[:len(data)/2])
	f.Add(header[:12], data)
	f.Add(plainHeader, plainData)
	f.Add(append(plainHeader, 0, 0, 0, 0, 0, 0, 0, 3), plainData)
	f.Fuzz(func(t *testing.T, header, data []byte) {
		s, err := Open(writeStoreFile(t, header, data))
		if err != nil {
			if !errors.Is(err, ErrHeader) {
				t.Fatalf("Open: %v, want ErrHeader", err)
			}
			return
		}
		_ = s.Format()
		if s.Count() == 0 {
			return
		}
		q := make([]float32, s.Dim())
		cur := s.Cursor()
		defer cur.Close()
		for _, id := range []uint64{0, s.Base() / 2, s.Base(), s.Count() / 2, s.Count() - 1} {
			if id < s.Count() {
				requireSameDist(t, &cur, s, id, q)
			}
		}
	})
}
