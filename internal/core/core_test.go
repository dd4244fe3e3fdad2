package core

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/hd-index/hdindex/internal/data"
	"github.com/hd-index/hdindex/internal/metrics"
	"github.com/hd-index/hdindex/internal/vecmath"
)

func TestChooseTauReproducesPaper(t *testing.T) {
	cases := []struct{ nu, preferred, want int }{
		{128, 8, 8},    // SIFT, Yorck
		{192, 8, 8},    // Audio
		{512, 16, 16},  // SUN
		{100, 8, 10},   // Glove (§5.2.4)
		{1369, 16, 37}, // Enron (§5.2.4)
	}
	for _, c := range cases {
		if got := ChooseTau(c.nu, c.preferred); got != c.want {
			t.Errorf("ChooseTau(%d,%d) = %d, want %d", c.nu, c.preferred, got, c.want)
		}
	}
}

func TestParamDefaults(t *testing.T) {
	var p Params
	p.SetDefaults(128, 50000)
	if p.Tau != 8 || p.M != 10 || p.Alpha != 4096 || p.Gamma != 1024 {
		t.Errorf("defaults = %+v", p)
	}
	if p.Beta != p.Alpha {
		t.Errorf("beta default must equal alpha, got %d", p.Beta)
	}
	var big Params
	big.SetDefaults(128, 2_000_000)
	if big.Alpha != 8192 {
		t.Errorf("large-dataset alpha = %d, want 8192", big.Alpha)
	}
	var hd Params
	hd.SetDefaults(512, 50000)
	if hd.Tau != 16 {
		t.Errorf("high-dim tau = %d, want 16", hd.Tau)
	}
}

func TestParamValidate(t *testing.T) {
	mk := func(mut func(*Params)) error {
		p := Params{}
		p.SetDefaults(128, 1000)
		mut(&p)
		return p.Validate(128)
	}
	if err := mk(func(p *Params) {}); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
	if mk(func(p *Params) { p.Tau = 7 }) == nil {
		t.Error("non-divisor tau must fail")
	}
	if mk(func(p *Params) { p.Omega = 0 }) == nil {
		t.Error("omega=0 must fail")
	}
	if mk(func(p *Params) { p.Gamma = p.Alpha * 2 }) == nil {
		t.Error("widening cascade must fail")
	}
	if mk(func(p *Params) { p.Curve = "peano" }) == nil {
		t.Error("unknown curve must fail")
	}
}

// buildSmall builds an index over a small clustered dataset and returns
// everything needed for querying.
func buildSmall(t testing.TB, n int, p Params) (*Index, *data.Dataset, [][]float32) {
	t.Helper()
	ds := data.Generate(data.Config{Name: "t", N: n, Dim: 32, Clusters: 6, Lo: 0, Hi: 1, Seed: 42})
	queries := ds.PerturbedQueries(10, 0.01, 43)
	dir := filepath.Join(t.TempDir(), "ix")
	ix, err := Build(dir, ds.Vectors, p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix, ds, queries
}

func TestBuildAndSearchQuality(t *testing.T) {
	p := Params{Tau: 4, Omega: 8, M: 5, Alpha: 512, Gamma: 128, Seed: 1}
	ix, ds, queries := buildSmall(t, 2000, p)
	if ix.Count() != 2000 {
		t.Fatalf("Count = %d", ix.Count())
	}
	truthIDs, truthDists := data.GroundTruth(ds.Vectors, queries, 10)
	var got [][]uint64
	var ratioSum float64
	for qi, q := range queries {
		res, _, err := ix.Query(context.Background(), q, 10, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 10 {
			t.Fatalf("returned %d results", len(res))
		}
		ids := make([]uint64, len(res))
		dists := make([]float64, len(res))
		for i, r := range res {
			ids[i] = r.ID
			dists[i] = r.Dist
		}
		got = append(got, ids)
		ratioSum += metrics.Ratio(dists, truthDists[qi])
		// Results must be sorted by distance.
		for i := 1; i < len(res); i++ {
			if res[i].Dist < res[i-1].Dist {
				t.Fatal("results not sorted")
			}
		}
		// Distances must be true Euclidean distances to the vector the
		// caller indexed under that id.
		if math.Abs(res[0].Dist-vecmath.Dist(q, ds.Vectors[res[0].ID])) > 1e-5 {
			t.Fatal("reported distance is not the true distance")
		}
	}
	m := metrics.MAP(got, truthIDs, 10)
	if m < 0.6 {
		t.Errorf("MAP@10 = %v; expected >= 0.6 on easy clustered data (alpha=512/n=2000)", m)
	}
	if r := ratioSum / float64(len(queries)); r > 1.3 {
		t.Errorf("mean ratio = %v; too high", r)
	}
}

// With alpha = n the candidate set covers everything reachable, and on a
// single partition the scan is exhaustive: results must be exact.
func TestExhaustiveAlphaIsExact(t *testing.T) {
	p := Params{Tau: 1, Omega: 8, M: 3, Alpha: 500, Beta: 500, Gamma: 500, Seed: 2}
	ds := data.Generate(data.Config{N: 500, Dim: 16, Lo: 0, Hi: 1, Seed: 7})
	queries := ds.PerturbedQueries(5, 0.02, 8)
	dir := filepath.Join(t.TempDir(), "ix")
	ix, err := Build(dir, ds.Vectors, p)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	truthIDs, _ := data.GroundTruth(ds.Vectors, queries, 5)
	for qi, q := range queries {
		res, _, err := ix.Query(context.Background(), q, 5, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.ID != truthIDs[qi][i] {
				t.Fatalf("query %d rank %d: got %d, want %d", qi, i, r.ID, truthIDs[qi][i])
			}
		}
	}
}

func TestPtolemaicAtLeastAsGoodAsTriangular(t *testing.T) {
	ds := data.Generate(data.Config{N: 3000, Dim: 32, Clusters: 8, Lo: 0, Hi: 1, Seed: 11})
	queries := ds.PerturbedQueries(15, 0.02, 12)
	truthIDs, _ := data.GroundTruth(ds.Vectors, queries, 10)

	run := func(usePto bool) float64 {
		p := Params{Tau: 4, Omega: 8, M: 8, Alpha: 256, Gamma: 64, UsePtolemaic: usePto, Seed: 13}
		if usePto {
			p.Beta = 256
		}
		dir := filepath.Join(t.TempDir(), "ix")
		ix, err := Build(dir, ds.Vectors, p)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		var got [][]uint64
		for _, q := range queries {
			res, _, err := ix.Query(context.Background(), q, 10, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]uint64, len(res))
			for i, r := range res {
				ids[i] = r.ID
			}
			got = append(got, ids)
		}
		return metrics.MAP(got, truthIDs, 10)
	}
	tri := run(false)
	pto := run(true)
	// §5.2.5: Ptolemaic filtering gives equal or better MAP for the same
	// alpha/gamma. Allow a whisker of noise.
	if pto+0.05 < tri {
		t.Errorf("Ptolemaic MAP %v should not be below triangular MAP %v", pto, tri)
	}
}

// The filters only ever drop candidates that a lower bound already
// excludes... but lower bounds are lower bounds: check validity directly.
func TestLowerBoundsNeverExceedTrueDistance(t *testing.T) {
	ds := data.Generate(data.Config{N: 300, Dim: 16, Lo: 0, Hi: 1, Seed: 21})
	p := Params{Tau: 2, Omega: 8, M: 6, Alpha: 64, Gamma: 16, Seed: 22}
	dir := filepath.Join(t.TempDir(), "ix")
	ix, err := Build(dir, ds.Vectors, p)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	rng := rand.New(rand.NewSource(23))
	sc := ix.trees[0].Scale()
	for trial := 0; trial < 50; trial++ {
		q := ds.Vectors[rng.Intn(len(ds.Vectors))]
		o := ds.Vectors[rng.Intn(len(ds.Vectors))]
		qdist, qs := make([]float64, p.M), make([]float64, p.M)
		codes := make([]uint16, p.M)
		for r, rv := range ix.refs {
			qdist[r] = vecmath.Dist(q, rv)
			qs[r] = qdist[r] / sc.S
			codes[r] = uint16(math.Round(vecmath.Dist(o, rv) / sc.S))
		}
		trueD := vecmath.Dist(q, o)
		if lb := math.Float64frombits(triangularLB(qs, codes, sc)); lb > trueD+1e-4 {
			t.Fatalf("triangular LB %v exceeds true %v", lb, trueD)
		}
		if lb := ix.ptolemaicLB(qdist, codes, sc); lb > trueD+1e-4 {
			t.Fatalf("Ptolemaic LB %v exceeds true %v", lb, trueD)
		}
	}
}

func TestOpenRoundTrip(t *testing.T) {
	ds := data.Generate(data.Config{N: 800, Dim: 32, Lo: 0, Hi: 1, Seed: 31})
	queries := ds.PerturbedQueries(5, 0.02, 32)
	dir := filepath.Join(t.TempDir(), "ix")
	p := Params{Tau: 4, Omega: 8, M: 4, Alpha: 128, Gamma: 32, Seed: 33}
	ix, err := Build(dir, ds.Vectors, p)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]Result, len(queries))
	for i, q := range queries {
		want[i], _, err = ix.Query(context.Background(), q, 5, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	ix2, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	if ix2.Count() != 800 || ix2.Dim() != 32 {
		t.Fatalf("reopened count=%d dim=%d", ix2.Count(), ix2.Dim())
	}
	for i, q := range queries {
		got, _, err := ix2.Query(context.Background(), q, 5, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if got[j] != want[i][j] {
				t.Fatalf("query %d result %d differs after reopen", i, j)
			}
		}
	}
}

func TestInsertAfterBuild(t *testing.T) {
	ds := data.Generate(data.Config{N: 500, Dim: 16, Lo: 0, Hi: 1, Seed: 51})
	dir := filepath.Join(t.TempDir(), "ix")
	p := Params{Tau: 2, Omega: 8, M: 3, Alpha: 64, Gamma: 16, Seed: 52}
	ix, err := Build(dir, ds.Vectors, p)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	// Insert a distinctive new point and query right on top of it.
	novel := make([]float32, 16)
	for d := range novel {
		novel[d] = 0.95
	}
	id, err := ix.Insert(novel)
	if err != nil {
		t.Fatal(err)
	}
	if id != 500 {
		t.Fatalf("inserted id = %d, want 500", id)
	}
	res, _, err := ix.Query(context.Background(), novel, 1, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != id || res[0].Dist > 1e-6 {
		t.Fatalf("search after insert = %+v", res)
	}
}

func TestSearchStats(t *testing.T) {
	p := Params{Tau: 4, Omega: 8, M: 4, Alpha: 128, Gamma: 32, Seed: 61}
	ix, _, queries := buildSmall(t, 1000, p)
	_, stats, err := ix.Query(context.Background(), queries[0], 10, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TreeEntries != 4*128 {
		t.Errorf("TreeEntries = %d, want %d", stats.TreeEntries, 4*128)
	}
	if stats.Candidates < 32 || stats.Candidates > 4*32 {
		t.Errorf("kappa = %d outside [gamma, tau*gamma]", stats.Candidates)
	}
	if stats.ExactDistances != stats.Candidates {
		t.Error("each candidate must be refined exactly once")
	}
}

func TestSearchValidation(t *testing.T) {
	p := Params{Tau: 2, Omega: 8, M: 3, Alpha: 64, Gamma: 16, Seed: 71}
	ix, _, queries := buildSmall(t, 300, p)
	if _, _, err := ix.Query(context.Background(), queries[0][:5], 3, SearchOptions{}); err == nil {
		t.Error("wrong query dims must fail")
	}
	if _, _, err := ix.Query(context.Background(), queries[0], 0, SearchOptions{}); err == nil {
		t.Error("k=0 must fail")
	}
}

func TestZOrderCurveWorks(t *testing.T) {
	ds := data.Generate(data.Config{N: 1000, Dim: 32, Clusters: 6, Lo: 0, Hi: 1, Seed: 81})
	queries := ds.PerturbedQueries(10, 0.01, 82)
	dir := filepath.Join(t.TempDir(), "ix")
	p := Params{Tau: 4, Omega: 8, M: 4, Alpha: 256, Gamma: 64, Curve: CurveZOrder, Seed: 83}
	ix, err := Build(dir, ds.Vectors, p)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	truthIDs, _ := data.GroundTruth(ds.Vectors, queries, 10)
	var got [][]uint64
	for _, q := range queries {
		res, _, err := ix.Query(context.Background(), q, 10, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]uint64, len(res))
		for i, r := range res {
			ids[i] = r.ID
		}
		got = append(got, ids)
	}
	if m := metrics.MAP(got, truthIDs, 10); m < 0.3 {
		t.Errorf("Z-order MAP = %v, suspiciously low even for Z-order", m)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(filepath.Join(t.TempDir(), "x"), nil, Params{}); err == nil {
		t.Error("empty dataset must fail")
	}
	vecs := [][]float32{{1, 2}, {3, 4}}
	if _, err := Build(filepath.Join(t.TempDir(), "y"), vecs, Params{M: 10, Tau: 1, Omega: 8, Alpha: 1, Beta: 1, Gamma: 1}); err == nil {
		t.Error("m > n must fail")
	}
}
