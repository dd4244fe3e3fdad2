package multicurves

import (
	"math"
	"path/filepath"
	"testing"

	"github.com/hd-index/hdindex/internal/data"
	"github.com/hd-index/hdindex/internal/metrics"
)

func TestQualityOnClusteredData(t *testing.T) {
	ds := data.Generate(data.Config{N: 2000, Dim: 32, Clusters: 6, Lo: 0, Hi: 1, Seed: 1})
	queries := ds.PerturbedQueries(10, 0.01, 2)
	ix, err := Build(filepath.Join(t.TempDir(), "mc"), ds.Vectors,
		Params{Tau: 4, Omega: 8, Alpha: 512, PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	truthIDs, _ := data.GroundTruth(ds.Vectors, queries, 10)
	var got [][]uint64
	for _, q := range queries {
		res, err := ix.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]uint64, len(res))
		for i, r := range res {
			ids[i] = r.ID
		}
		got = append(got, ids)
	}
	if m := metrics.MAP(got, truthIDs, 10); m < 0.6 {
		t.Errorf("MAP@10 = %v, expected >= 0.6 with alpha=512 on n=2000", m)
	}
}

// With alpha >= n and one curve the scan is exhaustive, hence exact.
func TestExhaustiveAlphaIsExact(t *testing.T) {
	ds := data.Generate(data.Config{N: 300, Dim: 8, Lo: 0, Hi: 1, Seed: 3})
	queries := ds.PerturbedQueries(5, 0.02, 4)
	ix, err := Build(filepath.Join(t.TempDir(), "mc"), ds.Vectors,
		Params{Tau: 1, Omega: 8, Alpha: 300})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	truthIDs, _ := data.GroundTruth(ds.Vectors, queries, 5)
	for qi, q := range queries {
		res, err := ix.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.ID != truthIDs[qi][i] {
				t.Fatalf("query %d rank %d mismatch", qi, i)
			}
		}
	}
}

// SUN-like dimensionality must be rejected ("NP" in Table 5): a 512-dim
// descriptor cannot fit a 4 KB leaf.
func TestHighDimNotPossible(t *testing.T) {
	ds := data.Generate(data.Config{N: 50, Dim: 512, Clusters: 2, Lo: 0, Hi: 1, Seed: 5})
	_, err := Build(filepath.Join(t.TempDir(), "mc"), ds.Vectors,
		Params{Tau: 16, Omega: 32, PageSize: 4096})
	if err == nil {
		t.Fatal("512-dim descriptors must be rejected at 4 KB pages")
	}
}

func TestIndexSizeGrowsWithTau(t *testing.T) {
	ds := data.Generate(data.Config{N: 500, Dim: 32, Lo: 0, Hi: 1, Seed: 6})
	ix2, err := Build(filepath.Join(t.TempDir(), "a"), ds.Vectors, Params{Tau: 2, Omega: 8, Alpha: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	ix4, err := Build(filepath.Join(t.TempDir(), "b"), ds.Vectors, Params{Tau: 4, Omega: 8, Alpha: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer ix4.Close()
	if ix4.SizeBytes() <= ix2.SizeBytes() {
		t.Errorf("tau=4 size %d should exceed tau=2 size %d (full descriptors per curve)",
			ix4.SizeBytes(), ix2.SizeBytes())
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	ds := data.Generate(data.Config{N: 800, Dim: 16, Lo: 0, Hi: 1, Seed: 7})
	queries := ds.PerturbedQueries(5, 0.02, 8)
	ix, err := Build(filepath.Join(t.TempDir(), "mc"), ds.Vectors, Params{Tau: 4, Omega: 8, Alpha: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for _, q := range queries {
		ix.params.Parallel = false
		seq, err := ix.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		ix.params.Parallel = true
		par, err := ix.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seq {
			if seq[i] != par[i] {
				t.Fatal("parallel differs from sequential")
			}
		}
	}
}

func TestValidation(t *testing.T) {
	ds := data.Uniform(50, 9, 0, 1, 9)
	if _, err := Build(filepath.Join(t.TempDir(), "v"), ds.Vectors, Params{Tau: 4}); err == nil {
		t.Error("tau not dividing dim must fail")
	}
	if _, err := Build(filepath.Join(t.TempDir(), "v2"), nil, Params{}); err == nil {
		t.Error("empty dataset must fail")
	}
}

// TestAnswersPinnedAcrossSharedWalk pins the baseline's side of the
// α-nearest walk it shares with the RDB-tree (bptree.WalkNearest): a
// fixed-seed build must keep answering these 20 queries with the ids and
// distances recorded before the walk was shared. α = 48 of 2000 keeps
// the scan far from exhaustive, so every direction choice shows.
func TestAnswersPinnedAcrossSharedWalk(t *testing.T) {
	want := []struct {
		ids   [3]uint64
		dists [3]float64
	}{
		{[3]uint64{169, 1074, 857}, [3]float64{0.32555593894378465, 0.42528539170672658, 0.44991003310667588}},
		{[3]uint64{847, 394, 572}, [3]float64{0.22697339587312293, 0.38286758926155201, 0.38907151180898752}},
		{[3]uint64{470, 1601, 1224}, [3]float64{0.40382739935683859, 0.40938047920406218, 0.41040053617531846}},
		{[3]uint64{229, 1375, 631}, [3]float64{0.29800154472799806, 0.39982092890719184, 0.40112726678820332}},
		{[3]uint64{1840, 984, 1659}, [3]float64{0.35558540764652702, 0.35635219000287027, 0.35916169919186108}},
		{[3]uint64{670, 707, 1328}, [3]float64{0.29166532459222744, 0.33072242294730669, 0.3631005690817285}},
		{[3]uint64{601, 1658, 517}, [3]float64{0.26087097499962614, 0.35742900733379479, 0.40046545543108897}},
		{[3]uint64{158, 1074, 397}, [3]float64{0.26785147282018712, 0.3805466241085404, 0.38904747018147551}},
		{[3]uint64{629, 899, 1557}, [3]float64{0.25637679355756687, 0.38179747240317002, 0.39069710523109802}},
		{[3]uint64{875, 831, 372}, [3]float64{0.24129905142460287, 0.30168943897604478, 0.31465941491683008}},
		{[3]uint64{1137, 1954, 1929}, [3]float64{0.310416862794613, 0.31599321229710842, 0.31716866366470459}},
		{[3]uint64{245, 1606, 465}, [3]float64{0.26893859411896925, 0.3356459167809448, 0.36031701821096723}},
		{[3]uint64{761, 1255, 457}, [3]float64{0.23314531346146974, 0.2832424323753745, 0.31903367719584724}},
		{[3]uint64{512, 1144, 1658}, [3]float64{0.27336578769877612, 0.32046439946576022, 0.32713418151940499}},
		{[3]uint64{957, 1064, 1250}, [3]float64{0.22498901282914757, 0.28832812024602422, 0.30582194521506623}},
		{[3]uint64{134, 982, 1458}, [3]float64{0.34309806937706211, 0.40950737541348137, 0.41244742795874567}},
		{[3]uint64{168, 425, 183}, [3]float64{0.22575806109665103, 0.34800221048590346, 0.36187438519553605}},
		{[3]uint64{1315, 411, 978}, [3]float64{0.27857925734744782, 0.30108338694913761, 0.31541029516282681}},
		{[3]uint64{374, 144, 860}, [3]float64{0.30390834320269916, 0.35096994198076464, 0.35787147731827978}},
		{[3]uint64{1725, 1296, 471}, [3]float64{0.35390597800611789, 0.4261735018197001, 0.47053668340825816}},
	}
	ds := data.Generate(data.Config{N: 2000, Dim: 32, Clusters: 6, Lo: 0, Hi: 1, Seed: 21})
	queries := ds.PerturbedQueries(len(want), 0.05, 22)
	ix, err := Build(filepath.Join(t.TempDir(), "mc"), ds.Vectors, Params{Tau: 4, Omega: 8, Alpha: 48})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for qi, q := range queries {
		res, err := ix.Search(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 3 {
			t.Fatalf("query %d: %d results, want 3", qi, len(res))
		}
		for i, r := range res {
			// Ids exactly; distances to 1e-12, which only forgives a
			// platform that fuses the multiply-adds differently.
			if r.ID != want[qi].ids[i] || math.Abs(r.Dist-want[qi].dists[i]) > 1e-12 {
				t.Errorf("query %d rank %d: got (%d, %.17g), want (%d, %.17g)", qi, i, r.ID, r.Dist, want[qi].ids[i], want[qi].dists[i])
			}
		}
	}
}
