package vecstore

import (
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/hd-index/hdindex/internal/pager"
)

func mkStore(t *testing.T, dim, pageSize int) (*Store, string) {
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

func TestAppendGetRoundTrip(t *testing.T) {
	s, _ := mkStore(t, 8, 256)
	rng := rand.New(rand.NewSource(1))
	vecs := randVecs(rng, 100, 8)
	for i, v := range vecs {
		id, err := s.Append(v)
		if err != nil {
			t.Fatal(err)
		}
		if id != uint64(i) {
			t.Fatalf("id = %d, want %d", id, i)
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
	if _, err := s.Append([]float32{1}); !errors.Is(err, ErrDim) {
		t.Error("short vector must fail")
	}
	if _, err := s.Get(0, nil); !errors.Is(err, ErrBadID) {
		t.Error("get from empty store must fail")
	}
	s.Append([]float32{1, 2, 3, 4})
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

// A cursor hands out the same floats as Get, pins a page once for all
// the consecutive reads that fall on it, and declines exactly where
// GetView does.
func TestCursorPinsEachPageOnce(t *testing.T) {
	const dim, n = 16, 40 // 64-byte records, 4 per 256-byte page
	pgr, err := pager.Open(filepath.Join(t.TempDir(), "c.pg"), pager.Options{Create: true, PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer pgr.Close()
	s, err := Create(pgr, dim)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < n; id++ {
		if _, err := s.Append(mkVec(dim, int64(id))); err != nil {
			t.Fatal(err)
		}
	}
	// Ascending with gaps and a repeat: ids 0,1,3 share page 1; 4 and 4
	// again page 2; 17,18 page 5; 39 page 10.
	ids := []uint64{0, 1, 3, 4, 4, 17, 18, 39}
	pgr.ResetStats()
	cur := s.Cursor()
	for _, id := range ids {
		got, ok := cur.View(id)
		if !ok {
			t.Fatalf("View(%d) declined", id)
		}
		want := mkVec(dim, int64(id))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("View(%d)[%d] = %v, want %v", id, i, got[i], want[i])
			}
		}
	}
	if st := pgr.Stats(); st.Hits+st.Misses != 4 {
		t.Fatalf("8 reads over 4 pages made %d page requests, want 4", st.Hits+st.Misses)
	}
	if _, ok := cur.View(n); ok {
		t.Fatal("View past the end must decline")
	}
	cur.Close()
	cur.Close() // idempotent
	if v, ok := cur.View(2); !ok || v[0] != mkVec(dim, 2)[0] {
		t.Fatal("a closed cursor must be usable again")
	}
	cur.Close()

	// dim 24 = 96-byte records over 256-byte pages: record 2 spans.
	pgr2, err := pager.Open(filepath.Join(t.TempDir(), "span.pg"), pager.Options{Create: true, PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer pgr2.Close()
	s2, err := Create(pgr2, 24)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 6; id++ {
		if _, err := s2.Append(mkVec(24, int64(id))); err != nil {
			t.Fatal(err)
		}
	}
	cur2 := s2.Cursor()
	defer cur2.Close()
	for id := uint64(0); id < 6; id++ {
		_, okCur := cur2.View(id)
		view, okView := s2.GetView(id)
		if okView {
			view.Release()
		}
		if okCur != okView {
			t.Fatalf("record %d: cursor ok=%v, GetView ok=%v", id, okCur, okView)
		}
	}
}
