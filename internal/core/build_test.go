package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"github.com/hd-index/hdindex/internal/pager"
	"github.com/hd-index/hdindex/internal/rdbtree"
)

// sortRecords is the seed build's comparison sort on the w-byte key
// prefix a tree stores, made deterministic under prefix ties by falling
// back to id order — the same tie rule the stable radix sort inherits
// from an identity input permutation.
func sortRecords(records []rdbtree.Record, w int) {
	sort.Slice(records, func(i, j int) bool {
		if c := bytes.Compare(records[i].Key[:w], records[j].Key[:w]); c != 0 {
			return c < 0
		}
		return records[i].ID < records[j].ID
	})
}

// buildReferenceTree reconstructs tree t of ix the way the seed
// implementation did — per-record Encode, Record structs, comparison
// sort, record bulk load — into its own pager file, and returns that
// file's bytes. Records are sorted by (stored key, id) and point at the slot
// ix's own ids.pg gives the id. Ids in drop are left out, as a compaction
// leaves out the marks it reclaims.
func buildReferenceTree(t *testing.T, ix *Index, tr int, vectors [][]float32, rdist []float32, drop map[uint64]bool, path string) []byte {
	t.Helper()
	p := ix.params
	q := ix.quants[tr]
	curve := fullCurve(t, ix)
	start := tr * ix.eta
	m := p.M

	records := make([]rdbtree.Record, 0, len(vectors))
	coords := make([]uint32, ix.eta)
	for id, v := range vectors {
		if drop[uint64(id)] {
			continue
		}
		q.Coords(coords, v[start:start+ix.eta])
		records = append(records, rdbtree.Record{
			Key:      curve.Encode(nil, coords),
			ID:       uint64(id),
			RefDists: rdist[id*m : (id+1)*m],
		})
	}
	sortRecords(records, ix.treeConfig().StoredKeyLen())
	for i := range records {
		slot, err := ix.slots.slot(records[i].ID)
		if err != nil {
			t.Fatal(err)
		}
		records[i].ID = slot
	}

	pgr, err := pager.Open(path, pager.Options{
		Create: true, PageSize: p.PageSize, PoolPages: p.PoolPages, DisableLRU: p.DisableCache,
	})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := rdbtree.Create(pgr, rdbtree.Config{Eta: ix.eta, Omega: p.Omega, M: p.M})
	if err != nil {
		pgr.Close()
		t.Fatal(err)
	}
	if err := tree.BulkLoad(records); err != nil {
		pgr.Close()
		t.Fatal(err)
	}
	if err := tree.Flush(); err != nil {
		pgr.Close()
		t.Fatal(err)
	}
	pgr.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBuildEquivalentToComparisonSortPath is the PR's core equivalence
// claim: the flat-arena + radix-sort build writes bit-identical tree
// files to the seed per-record comparison-sort path, for a fixed seed —
// and therefore returns bit-identical search results.
func TestBuildEquivalentToComparisonSortPath(t *testing.T) {
	vectors := testVectorsFlatTie(4000, 32, 9)
	p := Params{Tau: 8, Omega: 8, M: 6, Alpha: 256, Seed: 7}
	dir := t.TempDir()
	ix, err := Build(dir, vectors, p)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	rdist, err := computeRefDists(context.Background(), vectors, ix.refs)
	if err != nil {
		t.Fatal(err)
	}
	refDir := t.TempDir()
	for tr := 0; tr < ix.params.Tau; tr++ {
		want := buildReferenceTree(t, ix, tr, vectors, rdist, nil, filepath.Join(refDir, "ref.pg"))
		got, err := os.ReadFile(ix.treeGenPath(tr, 0))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("tree %d: arena build differs from comparison-sort reference (%d vs %d bytes)", tr, len(got), len(want))
		}
	}

	// Belt and braces: search through the real index equals search over
	// an index whose trees are the reference files.
	refIxDir := t.TempDir()
	copyDir(t, dir, refIxDir)
	for tr := 0; tr < ix.params.Tau; tr++ {
		b := buildReferenceTree(t, ix, tr, vectors, rdist, nil, filepath.Join(refDir, "ref.pg"))
		if err := os.WriteFile(filepath.Join(refIxDir, filepath.Base(ix.treeGenPath(tr, 0))), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	refIx, err := Open(refIxDir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer refIx.Close()
	rng := rand.New(rand.NewSource(99))
	for qi := 0; qi < 20; qi++ {
		q := vectors[rng.Intn(len(vectors))]
		a, _, err := ix.Query(context.Background(), q, 10, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := refIx.Query(context.Background(), q, 10, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("query %d: %d vs %d results", qi, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %d result %d: %+v vs %+v", qi, i, a[i], b[i])
			}
		}
	}
}

// TestCompactedGenerationEquivalentToComparisonSortPath pins the shared
// tree writer on the compaction side: after inserts, a delete of one
// base id and one batch id, and Compact, every tree_XX.g1.pg is
// byte-identical to the comparison-sort reference over the surviving
// objects — however many helpers build and compact — and scans as the
// same (key, id, refdists) stream. It runs at two geometries: τ = 8
// (4-byte Hilbert keys, stored whole, ties on the whole key) and τ = 2
// (16-byte keys cut to their 8-byte prefix) over data whose vectors
// differ mostly in bits past the prefix, so most neighbours tie on the
// prefix and only the id orders them.
func TestCompactedGenerationEquivalentToComparisonSortPath(t *testing.T) {
	for _, c := range []struct {
		name    string
		vectors [][]float32
		tau     int
	}{
		{"4-byte keys", testVectorsFlatTie(3000, 32, 13), 8},
		{"16-byte keys", testVectorsPrefixTie(3000, 32, 13), 2},
	} {
		t.Run(c.name, func(t *testing.T) { requireCompactedEquivalent(t, c.vectors, c.tau) })
	}
}

func requireCompactedEquivalent(t *testing.T, vectors [][]float32, tau int) {
	const base = 2400
	drop := map[uint64]bool{17: true, 2700: true}
	p := Params{Tau: tau, Omega: 8, M: 6, Alpha: 256, Seed: 7, MemtableMaxVectors: 1 << 20}
	eachHelperCount(p.Tau, func(procs int) {
		ix, err := Build(t.TempDir(), vectors[:base], p)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		for _, v := range vectors[base:] {
			if _, err := ix.Insert(v); err != nil {
				t.Fatal(err)
			}
		}
		for id := range drop {
			if err := ix.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		if err := ix.Compact(context.Background()); err != nil {
			t.Fatal(err)
		}
		if rep := mustCheck(t, ix, "compacted"); rep.KeyTies < base/4 {
			t.Fatalf("at most %d key ties in a tree of %d entries: the geometry barely tests the tie order", rep.KeyTies, len(vectors)-len(drop))
		}

		rdist, err := computeRefDists(context.Background(), vectors, ix.refs)
		if err != nil {
			t.Fatal(err)
		}
		refPath := filepath.Join(t.TempDir(), "ref.pg")
		for tr := 0; tr < ix.params.Tau; tr++ {
			want := buildReferenceTree(t, ix, tr, vectors, rdist, drop, refPath)
			got, err := os.ReadFile(ix.treeGenPath(tr, 1))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("GOMAXPROCS %d tree %d: compacted generation differs from comparison-sort reference (%d vs %d bytes)", procs, tr, len(got), len(want))
			}
			if g, w := scanStream(t, ix.treeGenPath(tr, 1)), scanStream(t, refPath); !bytes.Equal(g, w) {
				t.Fatalf("GOMAXPROCS %d tree %d: (key, id, refdists) stream differs from the reference", procs, tr)
			}
		}
	})
}

// scanStream opens the tree file at path and serialises what ScanAll
// yields, entry by entry.
func scanStream(t *testing.T, path string) []byte {
	t.Helper()
	pgr, err := pager.Open(path, pager.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pgr.Close()
	tree, err := rdbtree.Open(pgr)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = tree.ScanAll(func(k []byte, e rdbtree.Entry) bool {
		fmt.Fprintf(&out, "%x %d %v\n", k, e.ID, e.RefDists)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// testVectorsFlatTie generates vectors over a coarse integer grid so
// Hilbert-key ties actually occur — the case where only a *stable*
// sort keeps the build deterministic.
func testVectorsFlatTie(n, dim int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	vs := make([][]float32, n)
	for i := range vs {
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(rng.Intn(8)) // 8 distinct values/dim: many collisions
		}
		vs[i] = v
	}
	return vs
}

// testVectorsPrefixTie generates vectors whose coordinates are one of
// three widely spaced levels per vector plus a 0/1 offset per dimension:
// at ω = 8 the offsets reach only the Hilbert key's low-order levels,
// past the 8-byte prefix of a 16-dimension key, so vectors of one level
// tie on the prefix and (mostly) not on the full key.
func testVectorsPrefixTie(n, dim int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	vs := make([][]float32, n)
	for i := range vs {
		v := make([]float32, dim)
		level := float32(100 * rng.Intn(3))
		for d := range v {
			v[d] = level + float32(rng.Intn(2))
		}
		vs[i] = v
	}
	return vs
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// hashDirFiles returns every file's bytes keyed by name, for
// bit-identical comparisons.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out[rel] = b
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func assertSameFiles(t *testing.T, a, b map[string][]byte, skip func(string) bool) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("file sets differ: %d vs %d files", len(a), len(b))
	}
	for name, ab := range a {
		if skip != nil && skip(name) {
			continue
		}
		bb, ok := b[name]
		if !ok {
			t.Fatalf("file %s missing from second build", name)
		}
		if !bytes.Equal(ab, bb) {
			t.Fatalf("file %s differs between builds (%d vs %d bytes)", name, len(ab), len(bb))
		}
	}
}

// TestBuildDeterministicAcrossGOMAXPROCS pins core-level build
// determinism: a build alone on one CPU and one that idle CPUs join on
// eight produce bit-identical index files. Chunked encoding writes at
// fixed offsets and the radix sort is stable, so parallelism must not
// leak into the output.
func TestBuildDeterministicAcrossGOMAXPROCS(t *testing.T) {
	vectors := testVectorsFlatTie(3000, 32, 10)
	p := Params{Tau: 8, Omega: 8, M: 5, Alpha: 128, Seed: 3}

	build := func(dir string, procs int) {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		ix, err := Build(dir, vectors, p)
		if err != nil {
			t.Fatal(err)
		}
		ix.Close()
	}
	dir1, dir8 := t.TempDir(), t.TempDir()
	build(dir1, 1)
	build(dir8, 8)
	assertSameFiles(t, dirFiles(t, dir1), dirFiles(t, dir8), nil)
}

// TestBuildContextCancelled checks the cancellation contract: the build
// returns ctx's error and leaves a directory Open rejects (no commit
// point), not a half-index.
func TestBuildContextCancelled(t *testing.T) {
	vectors := testVectorsFlatTie(2000, 32, 11)
	dir := t.TempDir()
	// Seed the directory with a complete index first, so the test also
	// proves a cancelled rebuild invalidates the old layout rather than
	// leaving it half-served.
	ix, err := Build(dir, vectors, Params{Tau: 8, Omega: 8, M: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the build begins
	if _, err := BuildContext(ctx, dir, vectors, Params{Tau: 8, Omega: 8, M: 4, Seed: 1}); err == nil {
		t.Fatal("cancelled build must fail")
	}
	if _, err := Open(dir, OpenOptions{}); err == nil {
		t.Fatal("Open must reject the directory a cancelled build left behind")
	}
}

// TestBuildStatsPopulated checks the Info surface: a fresh build
// reports its phase breakdown, an opened index reports nil.
func TestBuildStatsPopulated(t *testing.T) {
	vectors := testVectorsFlatTie(1000, 16, 12)
	dir := t.TempDir()
	ix, err := Build(dir, vectors, Params{Tau: 4, Omega: 8, M: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bs := ix.BuildStats()
	if bs == nil {
		t.Fatal("fresh build must report BuildStats")
	}
	if bs.TotalMS <= 0 || bs.Allocs == 0 || bs.PeakHeapBytes == 0 {
		t.Fatalf("implausible stats: %+v", bs)
	}
	if bs.EncodeMS < 0 || bs.SortMS < 0 || bs.BulkLoadMS < 0 || bs.RefDistsMS < 0 {
		t.Fatalf("negative phase time: %+v", bs)
	}
	ix.Close()

	re, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.BuildStats() != nil {
		t.Fatal("opened index must not report BuildStats")
	}
}
