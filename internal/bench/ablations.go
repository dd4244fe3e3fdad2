package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"time"

	"github.com/hd-index/hdindex/internal/core"
)

// AblationPartition reproduces §5.2.1: random vs contiguous subspace
// partitioning. Random partitioning is emulated by permuting the
// dimensions of data and queries identically before building — exactly
// equivalent to assigning random dimension subsets to the curves.
func AblationPartition(out io.Writer, cfg Config) error {
	cfg.defaults()
	cfg.K = 10
	spec, _ := SpecByName("SIFT10K")
	w := MakeWorkload(spec, cfg)
	fmt.Fprintln(out, "\nAblation (§5.2.1): contiguous vs random dimension partitioning (SIFT10K)")
	t := NewTable(out, "partitioning", "MAP@10", "ratio")

	p := HDParams(spec, len(w.Data.Vectors))
	p.Seed = cfg.Seed
	r, err := runHD(w, filepath.Join(cfg.WorkDir, "abl-part", "contig"), p, 10)
	if err != nil {
		return err
	}
	t.Row("contiguous", r.MAP, r.Ratio)

	for trial := 0; trial < 3; trial++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(trial) + 1))
		perm := rng.Perm(w.Data.Dim)
		permuted := *w
		pd := *w.Data
		pd.Vectors = permuteAll(w.Data.Vectors, perm)
		permuted.Data = &pd
		permuted.Queries = permuteAll(w.Queries, perm)
		// Ground truth ids are invariant under a coordinate permutation.
		r, err := runHD(&permuted, filepath.Join(cfg.WorkDir, "abl-part", fmt.Sprintf("rand%d", trial)), p, 10)
		if err != nil {
			return err
		}
		t.Row(fmt.Sprintf("random #%d", trial+1), r.MAP, r.Ratio)
	}
	t.Flush()
	return nil
}

func permuteAll(vecs [][]float32, perm []int) [][]float32 {
	out := make([][]float32, len(vecs))
	for i, v := range vecs {
		p := make([]float32, len(v))
		for d, src := range perm {
			p[d] = v[src]
		}
		out[i] = p
	}
	return out
}

// AblationCurve quantifies the paper's choice of the Hilbert curve [37]
// by swapping in a Z-order (Morton) curve.
func AblationCurve(out io.Writer, cfg Config) error {
	cfg.defaults()
	cfg.K = 10
	spec, _ := SpecByName("SIFT10K")
	w := MakeWorkload(spec, cfg)
	fmt.Fprintln(out, "\nAblation: Hilbert vs Z-order curve (SIFT10K)")
	t := NewTable(out, "curve", "MAP@10", "ratio", "query ms")
	for _, curve := range []core.Curve{core.CurveHilbert, core.CurveZOrder} {
		p := HDParams(spec, len(w.Data.Vectors))
		p.Curve = curve
		p.Seed = cfg.Seed
		r, err := runHD(w, filepath.Join(cfg.WorkDir, "abl-curve", string(curve)), p, 10)
		if err != nil {
			return err
		}
		t.Row(string(curve), r.MAP, r.Ratio, r.AvgQueryMS)
	}
	t.Flush()
	return nil
}

// AblationParallel measures the trivial parallelisation across trees the
// paper notes in §5.2.8.
func AblationParallel(out io.Writer, cfg Config) error {
	cfg.defaults()
	cfg.K = 10
	spec, _ := SpecByName("SIFT1M")
	w := MakeWorkload(spec, cfg)
	fmt.Fprintln(out, "\nAblation (§5.2.8): sequential vs parallel tree search (SIFT1M)")
	t := NewTable(out, "mode", "query ms", "MAP@10")
	for _, parallel := range []bool{false, true} {
		p := HDParams(spec, len(w.Data.Vectors))
		p.Parallel = parallel
		p.Seed = cfg.Seed
		mode := "sequential"
		if parallel {
			mode = "parallel"
		}
		r, err := runHD(w, filepath.Join(cfg.WorkDir, "abl-par", mode), p, 10)
		if err != nil {
			return err
		}
		t.Row(mode, r.AvgQueryMS, r.MAP)
	}
	t.Flush()
	return nil
}

// AblationCache compares warm buffer-pool querying with the paper's
// caching-off protocol, reporting both time and physical page reads.
func AblationCache(out io.Writer, cfg Config) error {
	cfg.defaults()
	cfg.K = 10
	spec, _ := SpecByName("SIFT10K")
	w := MakeWorkload(spec, cfg)
	fmt.Fprintln(out, "\nAblation (§5 protocol): buffer pool on vs off (SIFT10K)")
	t := NewTable(out, "cache", "query ms", "page reads/query", "MAP@10")
	for _, disable := range []bool{false, true} {
		p := HDParams(spec, len(w.Data.Vectors))
		p.DisableCache = disable
		p.Seed = cfg.Seed
		dir := filepath.Join(cfg.WorkDir, "abl-cache", fmt.Sprintf("%v", disable))
		ix, err := core.Build(dir, w.Data.Vectors, p)
		if err != nil {
			return err
		}
		ix.ResetIOStats()
		got := make([][]uint64, len(w.Queries))
		t0 := time.Now()
		for qi, q := range w.Queries {
			res, _, err := ix.Query(context.Background(), q, 10, core.SearchOptions{})
			if err != nil {
				ix.Close()
				return err
			}
			ids := make([]uint64, len(res))
			for i, r := range res {
				ids[i] = r.ID
			}
			got[qi] = ids
		}
		ms := float64(time.Since(t0).Microseconds()) / 1000 / float64(len(w.Queries))
		reads := float64(ix.IOStats().Reads) / float64(len(w.Queries))
		mapv := mapOf(got, w.TruthIDs, 10)
		mode := "on"
		if disable {
			mode = "off"
		}
		t.Row(mode, ms, reads, mapv)
		ix.Close()
	}
	t.Flush()
	return nil
}

// AblationScaling supports §5.4.2: HD-Index's query time "scales
// gracefully with dataset size" because the per-query work is fixed by
// (τ, α, γ), not by n. Doubling n repeatedly must grow query time far
// slower than the exact methods', and MAP must degrade only gently.
func AblationScaling(out io.Writer, cfg Config) error {
	cfg.defaults()
	cfg.K = 10
	fmt.Fprintln(out, "\nAblation (§5.4.2): scaling with dataset size (SIFT-like, fixed alpha=1024)")
	t := NewTable(out, "n", "HD ms", "HD MAP", "iDistance ms", "HNSW ms", "HNSW MAP")
	for _, mult := range []float64{0.5, 1, 2, 4} {
		spec, _ := SpecByName("SIFT10K")
		spec.Alpha = 1024
		sub := cfg
		sub.Scale = cfg.Scale * mult
		w := MakeWorkload(spec, sub)
		n := len(w.Data.Vectors)

		p := HDParams(spec, n)
		p.Seed = cfg.Seed
		hd, err := runHD(w, filepath.Join(cfg.WorkDir, "abl-scale", fmt.Sprintf("hd%d", n)), p, 10)
		if err != nil {
			return err
		}
		var idistMS, hnswMS, hnswMAP float64
		for _, b := range Methods(cfg.Seed) {
			switch b.Name {
			case "iDistance", "HNSW":
				r := RunMethod(b, w, filepath.Join(cfg.WorkDir, "abl-scale", b.Name+fmt.Sprint(n)), 10)
				if r.Err != nil {
					return r.Err
				}
				if b.Name == "iDistance" {
					idistMS = r.AvgQueryMS
				} else {
					hnswMS = r.AvgQueryMS
					hnswMAP = r.MAP
				}
			}
		}
		t.Row(n, hd.AvgQueryMS, hd.MAP, idistMS, hnswMS, hnswMAP)
	}
	t.Flush()
	return nil
}

// AblationPtolemaicIO supports §5.2.5's I/O argument: the Ptolemaic
// filter costs CPU, not disk — page reads per query must match the
// triangular-only configuration.
func AblationPtolemaicIO(out io.Writer, cfg Config) error {
	cfg.defaults()
	spec, _ := SpecByName("SIFT10K")
	w := MakeWorkload(spec, cfg)
	fmt.Fprintln(out, "\nAblation (§5.2.5): Ptolemaic filtering is I/O-free (SIFT10K)")
	t := NewTable(out, "filter", "page reads/query", "MAP@10", "query ms")
	for _, pto := range []bool{false, true} {
		p := HDParams(spec, len(w.Data.Vectors))
		p.UsePtolemaic = pto
		if pto {
			p.Beta = p.Alpha
		}
		p.DisableCache = true
		p.Seed = cfg.Seed
		dir := filepath.Join(cfg.WorkDir, "abl-pto", fmt.Sprintf("%v", pto))
		ix, err := core.Build(dir, w.Data.Vectors, p)
		if err != nil {
			return err
		}
		ix.ResetIOStats()
		got := make([][]uint64, len(w.Queries))
		t0 := time.Now()
		for qi, q := range w.Queries {
			res, _, err := ix.Query(context.Background(), q, 10, core.SearchOptions{})
			if err != nil {
				ix.Close()
				return err
			}
			ids := make([]uint64, len(res))
			for i, r := range res {
				ids[i] = r.ID
			}
			got[qi] = ids
		}
		ms := float64(time.Since(t0).Microseconds()) / 1000 / float64(len(w.Queries))
		reads := float64(ix.IOStats().Reads) / float64(len(w.Queries))
		name := "triangular"
		if pto {
			name = "tri+ptolemaic"
		}
		t.Row(name, reads, mapOf(got, w.TruthIDs, 10), ms)
		ix.Close()
	}
	t.Flush()
	return nil
}
