package hdindex

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/hd-index/hdindex/internal/data"
)

// crashClone snapshots the index directory while the owning handle is
// still open — simulating SIGKILL: no Close, no Flush, recovery sees
// only what reached the filesystem.
func crashClone(t *testing.T, dir string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "crashed")
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		src, err := os.Open(path)
		if err != nil {
			return err
		}
		defer src.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, src); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// Every acknowledged insert and delete must survive a crash — no Close,
// no Flush — on every layout, each shard's WAL replaying its stripe, with
// bit-identical query answers after recovery.
func TestFacadeCrashRecovery(t *testing.T) {
	for _, shards := range []int{0, 1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ds := data.Generate(data.Config{Name: "fcrash", N: 900, Dim: 32, Clusters: 5, Lo: 0, Hi: 1, Seed: 171})
			queries := ds.PerturbedQueries(8, 0.02, 172)
			dir := filepath.Join(t.TempDir(), "ix")
			opts := Options{Tau: 4, Omega: 8, M: 4, Alpha: 256, Gamma: 64, Seed: 173,
				Shards: shards, MemtableMaxVectors: 1 << 20}
			idx, err := Build(dir, ds.Vectors[:800], opts)
			if err != nil {
				t.Fatal(err)
			}
			defer idx.Close()
			for i, v := range ds.Vectors[800:] {
				id, err := idx.Insert(v)
				if err != nil {
					t.Fatal(err)
				}
				if id != uint64(800+i) {
					t.Fatalf("insert %d assigned id %d", i, id)
				}
			}
			if err := idx.Delete(17); err != nil {
				t.Fatal(err)
			}
			if err := idx.Delete(840); err != nil {
				t.Fatal(err)
			}
			want := make([][]Result, len(queries))
			for qi, q := range queries {
				resp, err := idx.Query(ctx, q, 10)
				if err != nil {
					t.Fatal(err)
				}
				want[qi] = resp.Results
			}

			re, err := Open(crashClone(t, dir), Options{MemtableMaxVectors: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.Count() != 900 {
				t.Fatalf("recovered count = %d, want 900", re.Count())
			}
			if re.DeletedCount() != 2 {
				t.Fatalf("recovered deleted = %d, want 2", re.DeletedCount())
			}
			ist := re.IngestStats()
			if ist.Replayed != 102 {
				t.Fatalf("replayed = %d, want 102", ist.Replayed)
			}
			if ist.MemtableVectors != 100 {
				t.Fatalf("recovered memtable = %d, want 100", ist.MemtableVectors)
			}
			for qi, q := range queries {
				resp, err := re.Query(ctx, q, 10)
				if err != nil {
					t.Fatal(err)
				}
				res := resp.Results
				if len(res) != len(want[qi]) {
					t.Fatalf("query %d: %d results, want %d", qi, len(res), len(want[qi]))
				}
				for i := range res {
					if res[i].ID != want[qi][i].ID ||
						math.Float64bits(res[i].Dist) != math.Float64bits(want[qi][i].Dist) {
						t.Fatalf("query %d rank %d: %+v != %+v", qi, i, res[i], want[qi][i])
					}
				}
			}
		})
	}
}

// Compact drains the memtable into the trees through the facade; query
// answers are unchanged and a purged deletion refuses Undelete with the
// exported ErrPurged.
func TestFacadeCompactAndPurge(t *testing.T) {
	ds := data.Generate(data.Config{Name: "fcomp", N: 600, Dim: 16, Clusters: 4, Lo: 0, Hi: 1, Seed: 181})
	dir := filepath.Join(t.TempDir(), "ix")
	// Exhaustive cascade: the memtable scan is exact by construction,
	// so only exact tree settings make pre- and post-compaction answers
	// comparable bit-for-bit.
	idx, err := Build(dir, ds.Vectors[:500], Options{Tau: 2, Omega: 8, M: 3,
		Alpha: 600, Beta: 600, Gamma: 600, Seed: 182, MemtableMaxVectors: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	for _, v := range ds.Vectors[500:] {
		if _, err := idx.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := idx.Delete(42); err != nil {
		t.Fatal(err)
	}
	q := ds.Vectors[550]
	want, err := idx.Query(ctx, q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := idx.IngestStats()
	if st.MemtableVectors != 0 || st.Compactions != 1 {
		t.Fatalf("post-compaction ingest stats = %+v", st)
	}
	got, err := idx.Query(ctx, q, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Results {
		if got.Results[i] != want.Results[i] {
			t.Fatalf("rank %d changed across Compact: %+v != %+v", i, got.Results[i], want.Results[i])
		}
	}
	if err := idx.Undelete(42); !errors.Is(err, ErrPurged) {
		t.Fatalf("Undelete(42) = %v, want ErrPurged", err)
	}
}
