package rdbtree

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/hd-index/hdindex/internal/pager"
	"github.com/hd-index/hdindex/internal/radix"
)

// mkArena builds parallel flat arenas of n random keys/refdists plus the
// sorted permutation, and the equivalent []Record input for BulkLoad.
func mkArena(t *testing.T, cfg Config, n int, seed int64) (keys []byte, perm []uint32, rdist []float32, recs []Record) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	kl, m := cfg.KeyLen(), cfg.M
	keys = make([]byte, n*kl)
	rng.Read(keys)
	rdist = make([]float32, n*m)
	for i := range rdist {
		rdist[i] = rng.Float32() * 100
	}
	perm = make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	radix.Sort(keys, kl, perm)
	recs = make([]Record, n)
	for i, row := range perm {
		recs[i] = Record{
			Key:      keys[int(row)*kl : (int(row)+1)*kl],
			ID:       uint64(row),
			RefDists: rdist[int(row)*m : (int(row)+1)*m],
		}
	}
	return keys, perm, rdist, recs
}

func mkTreeAt(t *testing.T, path string, cfg Config, pageSize int) (*Tree, *pager.Pager) {
	t.Helper()
	pgr, err := pager.Open(path, pager.Options{Create: true, PageSize: pageSize, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Create(pgr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr, pgr
}

// TestBulkLoadArenaMatchesBulkLoad pins the arena loader to the record
// loader byte-for-byte: same sorted input, identical tree files.
func TestBulkLoadArenaMatchesBulkLoad(t *testing.T) {
	cfg := Config{Eta: 16, Omega: 8, M: 5}
	const n = 2000
	keys, perm, rdist, recs := mkArena(t, cfg, n, 11)

	dir := t.TempDir()
	pa, pb := filepath.Join(dir, "arena.pg"), filepath.Join(dir, "records.pg")
	ta, pgrA := mkTreeAt(t, pa, cfg, 4096)
	if err := ta.BulkLoadArena(keys, perm, nil, rdist, Scale{}); err != nil {
		t.Fatal(err)
	}
	if err := ta.Flush(); err != nil {
		t.Fatal(err)
	}
	if ta.Count() != n {
		t.Fatalf("arena count = %d", ta.Count())
	}
	pgrA.Close()

	tb, pgrB := mkTreeAt(t, pb, cfg, 4096)
	if err := tb.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	if err := tb.Flush(); err != nil {
		t.Fatal(err)
	}
	pgrB.Close()

	ba := readFile(t, pa)
	bb := readFile(t, pb)
	if !bytes.Equal(ba, bb) {
		t.Fatalf("arena-loaded tree file differs from record-loaded one (%d vs %d bytes)", len(ba), len(bb))
	}
}

// TestBulkLoadArenaIDs checks the explicit row→id mapping.
func TestBulkLoadArenaIDs(t *testing.T) {
	cfg := Config{Eta: 16, Omega: 8, M: 2}
	const n = 300
	keys, perm, rdist, _ := mkArena(t, cfg, n, 12)
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i)*10 + 7
	}
	tr, pgr := mkTreeAt(t, filepath.Join(t.TempDir(), "ids.pg"), cfg, 1024)
	defer pgr.Close()
	if err := tr.BulkLoadArena(keys, perm, ids, rdist, Scale{}); err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, 0, n)
	for _, row := range perm {
		want = append(want, ids[row])
	}
	// Equal keys may interleave, so compare as sorted multisets per scan
	// position is overkill — keys are random 16-byte, ties negligible.
	got := make([]uint64, 0, n)
	tr.ScanAll(func(_ []byte, e Entry) bool {
		got = append(got, e.ID)
		return true
	})
	if len(got) != n {
		t.Fatalf("scanned %d entries", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pos %d: id = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestBulkLoadArenaValidation(t *testing.T) {
	cfg := Config{Eta: 16, Omega: 8, M: 2}
	tr, pgr := mkTreeAt(t, filepath.Join(t.TempDir(), "bad.pg"), cfg, 1024)
	defer pgr.Close()
	kl := cfg.KeyLen()
	if err := tr.BulkLoadArena(make([]byte, 3*kl), []uint32{0, 1}, nil, make([]float32, 4), Scale{}); err == nil {
		t.Fatal("short perm vs keys must fail")
	}
	if err := tr.BulkLoadArena(make([]byte, 2*kl), []uint32{0, 1}, nil, make([]float32, 3), Scale{}); err == nil {
		t.Fatal("wrong refdist arena length must fail")
	}
	if err := tr.BulkLoadArena(make([]byte, 2*kl), []uint32{0, 1}, []uint64{1}, make([]float32, 4), Scale{}); err == nil {
		t.Fatal("wrong ids length must fail")
	}
	// Unsorted perm must surface bptree's ErrNotSorted, not corrupt.
	keys := make([]byte, 2*kl)
	keys[0] = 1 // row 0 > row 1
	if err := tr.BulkLoadArena(keys, []uint32{0, 1}, nil, make([]float32, 4), Scale{}); err == nil {
		t.Fatal("unsorted arena order must fail")
	}
}

// A tree is written once: a second load is refused, and the tree keeps
// the scale its codes were written at — here one the second load's
// farther distances would have coarsened.
func TestRefusedLoadKeepsTheScale(t *testing.T) {
	cfg := Config{Eta: 16, Omega: 8, M: 2}
	tr, pgr := mkTreeAt(t, filepath.Join(t.TempDir(), "once.pg"), cfg, 1024)
	defer pgr.Close()
	if err := tr.BulkLoad([]Record{{Key: key16(1), ID: 0, RefDists: []float32{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	sc := tr.Scale()
	if err := tr.BulkLoad([]Record{{Key: key16(2), ID: 1, RefDists: []float32{100, 200}}}); err == nil {
		t.Fatal("a second load was accepted")
	}
	got, err := nearest(tr, key16(1), 1)
	if err != nil || tr.Scale() != sc || len(got) != 1 || !within(tr, got[0].RefDists[1], 2) {
		t.Fatalf("after the refused load: scale %+v (was %+v), entries %+v, %v", tr.Scale(), sc, got, err)
	}
}

// TestBulkLoadArenaEmpty loads zero rows and leaves a valid empty tree.
func TestBulkLoadArenaEmpty(t *testing.T) {
	cfg := Config{Eta: 16, Omega: 8, M: 2}
	tr, pgr := mkTreeAt(t, filepath.Join(t.TempDir(), "empty.pg"), cfg, 1024)
	defer pgr.Close()
	if err := tr.BulkLoadArena(nil, nil, nil, nil, Scale{}); err != nil {
		t.Fatal(err)
	}
	if tr.Count() != 0 {
		t.Fatalf("count = %d", tr.Count())
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A pointer is a 32-bit slot: an id past 32 bits is ErrIDRange from
// both loaders, never a truncated slot, and the last 32-bit id loads and
// reads back.
func TestBulkLoadRejectsIDPast32Bits(t *testing.T) {
	cfg := Config{Eta: 16, Omega: 8, M: 2}
	loads := map[string]func(*Tree, uint64) error{
		"BulkLoad": func(tr *Tree, id uint64) error {
			return tr.BulkLoad([]Record{{Key: key16(1), ID: 0, RefDists: []float32{1, 2}}, {Key: key16(2), ID: id, RefDists: []float32{3, 4}}})
		},
		"BulkLoadArena": func(tr *Tree, id uint64) error {
			return tr.BulkLoadArena(make([]byte, 2*cfg.KeyLen()), []uint32{0, 1}, []uint64{0, id}, []float32{1, 2, 3, 4}, Scale{})
		},
	}
	for name, load := range loads {
		dir := t.TempDir()
		tr, pgr := mkTreeAt(t, filepath.Join(dir, "past.pg"), cfg, 1024)
		if err := load(tr, 1<<32); !errors.Is(err, ErrIDRange) {
			t.Errorf("%s of id 2^32: %v, want ErrIDRange", name, err)
		}
		pgr.Close()
		tr, pgr = mkTreeAt(t, filepath.Join(dir, "last.pg"), cfg, 1024)
		if err := load(tr, math.MaxUint32); err != nil {
			t.Fatalf("%s of id 2^32-1: %v", name, err)
		}
		var ids []uint64
		if err := tr.ScanAll(func(_ []byte, e Entry) bool { ids = append(ids, e.ID); return true }); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ids, []uint64{0, math.MaxUint32}) {
			t.Errorf("%s: read back ids %v", name, ids)
		}
		pgr.Close()
	}
}
