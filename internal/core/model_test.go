package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The model test: a seeded random interleaving of every mutation and
// lifecycle step core.Index offers, checked after each step against an
// oracle that is nothing but a slice of vectors, two id sets and a
// brute-force scan. Queries run under exhaustive parameters (α = γ = n),
// so every live object is a candidate and the answer must equal the
// oracle's bit for bit — ids, distances, and the (Dist, ID) order that
// decides ties. Vectors live on a coarse integer grid, so equal Hilbert
// keys and equal distances across the k-th boundary are the common case,
// not the corner. A failure prints the op sequence that led to it.
//
// It knows nothing about how the index lays anything out on disk, which
// is the point: a format change must pass it unchanged. What it cannot
// see from the outside — a tree entry filed under the wrong key, a
// stale generation file — Index.Check looks for after every reopen and
// at the end.

// modelSteps is the number of ops per seed: a few hundred across the
// seeds in tier-1, as many as HD_MODEL_STEPS asks for otherwise.
func modelSteps(t *testing.T) int {
	if s := os.Getenv("HD_MODEL_STEPS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("HD_MODEL_STEPS=%q: want a positive integer", s)
		}
		return n
	}
	return 120
}

// model is the oracle: what the index must contain, by construction.
type model struct {
	vecs   [][]float32     // by id
	marked map[uint64]bool // deletion marks an Undelete can still lift
	purged map[uint64]bool // marks a compaction made permanent
	mem    int             // inserts since the last compaction (the memtable)
}

func (m *model) dead() map[uint64]bool {
	dead := make(map[uint64]bool, len(m.marked)+len(m.purged))
	for id := range m.marked {
		dead[id] = true
	}
	for id := range m.purged {
		dead[id] = true
	}
	return dead
}

// modelRun is one seeded run: the index under test, its oracle, and the
// op log a failure prints.
type modelRun struct {
	t   *testing.T
	rng *rand.Rand
	dir string
	ix  *Index
	m   model
	ops []string
}

const modelDim = 16

func (r *modelRun) params() Params {
	return Params{Tau: 4, Omega: 8, M: 3, Alpha: 64, Gamma: 64, Seed: 11, MemtableMaxVectors: 1 << 20}
}

func (r *modelRun) openOptions() OpenOptions {
	return OpenOptions{MemtableMaxVectors: 1 << 20}
}

func (r *modelRun) failf(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("%s\nop sequence (%d ops):\n  %s", fmt.Sprintf(format, args...), len(r.ops), strings.Join(r.ops, "\n  "))
}

func (r *modelRun) logf(format string, args ...any) {
	r.ops = append(r.ops, fmt.Sprintf(format, args...))
}

// gridVector draws from a 6-value grid per dimension: distances are
// small integers (squared), keys collide.
func (r *modelRun) gridVector() []float32 {
	v := make([]float32, modelDim)
	for d := range v {
		v[d] = float32(r.rng.Intn(6))
	}
	return v
}

// someVector is a fresh grid vector or, a third of the time, an exact
// copy of one already indexed (live or dead): a hand-made tie.
func (r *modelRun) someVector() []float32 {
	if r.rng.Intn(3) == 0 {
		return append([]float32(nil), r.m.vecs[r.rng.Intn(len(r.m.vecs))]...)
	}
	return r.gridVector()
}

// someID is mostly a known id, sometimes one past the end.
func (r *modelRun) someID() uint64 {
	if r.rng.Intn(12) == 0 {
		return uint64(len(r.m.vecs) + r.rng.Intn(3))
	}
	return uint64(r.rng.Intn(len(r.m.vecs)))
}

func (r *modelRun) step() {
	ctx := context.Background()
	switch p := r.rng.Intn(100); {
	case p < 30:
		v := r.someVector()
		id, err := r.ix.Insert(v)
		r.logf("Insert(%v) = %d, %v", v, id, err)
		if err != nil || id != uint64(len(r.m.vecs)) {
			r.failf("Insert returned id %d, err %v; want id %d", id, err, len(r.m.vecs))
		}
		r.m.vecs = append(r.m.vecs, v)
		r.m.mem++
	case p < 45:
		id := r.someID()
		err := r.ix.Delete(id)
		r.logf("Delete(%d) = %v", id, err)
		switch {
		case id >= uint64(len(r.m.vecs)):
			if !errors.Is(err, ErrUnknownID) {
				r.failf("Delete(%d) of an unassigned id: err %v, want ErrUnknownID", id, err)
			}
		case err != nil:
			r.failf("Delete(%d): %v", id, err)
		case !r.m.purged[id]:
			r.m.marked[id] = true
		}
	case p < 53:
		id := r.someID()
		if len(r.m.marked) > 0 && r.rng.Intn(2) == 0 {
			for id = range r.m.marked { // any marked id; map order is fine, the op is logged
				break
			}
		}
		err := r.ix.Undelete(id)
		r.logf("Undelete(%d) = %v", id, err)
		switch {
		case id >= uint64(len(r.m.vecs)):
			if !errors.Is(err, ErrUnknownID) {
				r.failf("Undelete(%d) of an unassigned id: err %v, want ErrUnknownID", id, err)
			}
		case r.m.purged[id]:
			if !errors.Is(err, ErrPurged) {
				r.failf("Undelete(%d) of a purged id: err %v, want ErrPurged", id, err)
			}
		case err != nil:
			r.failf("Undelete(%d): %v", id, err)
		default:
			delete(r.m.marked, id)
		}
	case p < 60:
		err := r.ix.Compact(ctx)
		r.logf("Compact() = %v", err)
		if err != nil {
			r.failf("Compact: %v", err)
		}
		// An empty memtable makes Compact a no-op: marks stay liftable.
		if r.m.mem > 0 {
			for id := range r.m.marked {
				r.m.purged[id] = true
			}
			clear(r.m.marked)
			r.m.mem = 0
		}
	case p < 64:
		err := r.ix.Flush()
		r.logf("Flush() = %v", err)
		if err != nil {
			r.failf("Flush: %v", err)
		}
	case p < 70:
		err := r.ix.Close()
		r.logf("Close() = %v; Open", err)
		if err != nil {
			r.failf("Close: %v", err)
		}
		r.reopen(r.dir)
	case p < 76:
		// SIGKILL by another name: recovery sees exactly the bytes the
		// process had written, and every acknowledged op is among them.
		crashed := crashCopy(r.t, r.dir)
		r.logf("crash-copy; Open the copy")
		if err := r.ix.Close(); err != nil {
			r.failf("Close of the abandoned original: %v", err)
		}
		r.reopen(crashed)
	default:
		r.query()
	}
}

func (r *modelRun) reopen(dir string) {
	ix, err := Open(dir, r.openOptions())
	if err != nil {
		r.failf("Open(%s): %v", dir, err)
	}
	r.dir, r.ix = dir, ix
	r.verifyCounts()
	r.check()
}

// check runs the index fsck: whatever the ops did, the directory must be
// one `hdtool check` passes.
func (r *modelRun) check() {
	if _, err := r.ix.Check(context.Background()); err != nil {
		r.failf("%v", err)
	}
}

func (r *modelRun) verifyCounts() {
	if got, want := r.ix.Count(), uint64(len(r.m.vecs)); got != want {
		r.failf("Count() = %d, oracle holds %d", got, want)
	}
	if got, want := r.ix.DeletedCount(), len(r.m.marked)+len(r.m.purged); got != want {
		r.failf("DeletedCount() = %d, oracle holds %d marked + %d purged", got, len(r.m.marked), len(r.m.purged))
	}
}

// query asks one exhaustive question, with and without helpers, and
// compares with the brute-force answer over the oracle.
func (r *modelRun) query() {
	q := r.someVector()
	k := 1 + r.rng.Intn(12)
	n := max(len(r.m.vecs), k)
	r.logf("Query(%v, k=%d)", q, k)
	want := bruteForce(r.m.vecs, r.m.dead(), q, k)
	eachHelperCount(r.params().Tau, func(procs int) {
		got, st, err := r.ix.Query(context.Background(), q, k, SearchOptions{Alpha: n, Gamma: n})
		if err != nil {
			r.failf("Query at GOMAXPROCS %d: %v", procs, err)
		}
		if len(got) != len(want) {
			r.failf("Query at GOMAXPROCS %d returned %d results, oracle %d\n got  %+v\n want %+v", procs, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
				r.failf("Query at GOMAXPROCS %d, rank %d: got %+v, oracle %+v\n got  %+v\n want %+v", procs, i, got[i], want[i], got, want)
			}
		}
		// Exhaustive means exhaustive: every object the trees still hold is
		// a candidate, every memtable entry is scanned.
		if wantCand := len(r.m.vecs) - r.m.mem - len(r.m.purged); st.Candidates != wantCand {
			r.failf("Query saw %d tree candidates, oracle expects %d (= %d objects - %d in the memtable - %d purged)",
				st.Candidates, wantCand, len(r.m.vecs), r.m.mem, len(r.m.purged))
		}
		if st.MemtableScanned > r.m.mem {
			r.failf("Query scanned %d memtable entries, the memtable holds %d", st.MemtableScanned, r.m.mem)
		}
	})
}

func TestModelAgainstBruteForceOracle(t *testing.T) {
	steps := modelSteps(t)
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := &modelRun{t: t, rng: rand.New(rand.NewSource(seed)), dir: filepath.Join(t.TempDir(), "ix")}
			r.m = model{marked: map[uint64]bool{}, purged: map[uint64]bool{}}
			for i := 0; i < 150; i++ {
				r.m.vecs = append(r.m.vecs, r.gridVector())
			}
			ix, err := Build(r.dir, r.m.vecs, r.params())
			if err != nil {
				t.Fatal(err)
			}
			r.ix = ix
			defer func() { r.ix.Close() }()
			// The grid is integer-valued in [0,255]: the store must hold it
			// as byte records, or the model tests float32 alone.
			if got := ix.vectors.Base(); got != uint64(len(r.m.vecs)) {
				t.Fatalf("the integer grid built %d byte records, want %d", got, len(r.m.vecs))
			}
			r.logf("Build(%d vectors)", len(r.m.vecs))
			for i := 0; i < steps; i++ {
				r.step()
				r.verifyCounts()
			}
			r.query()
			r.check()
		})
	}
}
