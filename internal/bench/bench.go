// Package bench is the experiment harness of the reproduction: one
// runner per table/figure of the paper's evaluation (§5), each printing
// the same rows/series the paper reports. cmd/hdbench drives it at full
// scale; the repository-root benchmarks drive it at reduced scale.
//
// Scale note: the harness generates synthetic stand-ins for the paper's
// corpora (see internal/data) whose sizes scale with Config.Scale, so the
// same code runs as a quick smoke test (Scale≈0.05) or a multi-minute
// full reproduction (Scale=1).
package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/hd-index/hdindex/internal/baselines"
	"github.com/hd-index/hdindex/internal/baselines/c2lsh"
	"github.com/hd-index/hdindex/internal/baselines/hnsw"
	"github.com/hd-index/hdindex/internal/baselines/idistance"
	"github.com/hd-index/hdindex/internal/baselines/linearscan"
	"github.com/hd-index/hdindex/internal/baselines/multicurves"
	"github.com/hd-index/hdindex/internal/baselines/opq"
	"github.com/hd-index/hdindex/internal/baselines/qalsh"
	"github.com/hd-index/hdindex/internal/baselines/srs"
	"github.com/hd-index/hdindex/internal/core"
	"github.com/hd-index/hdindex/internal/data"
	"github.com/hd-index/hdindex/internal/metrics"
	"github.com/hd-index/hdindex/internal/slo"
)

// Config controls experiment scale and output.
type Config struct {
	Scale   float64 // dataset size multiplier; 1.0 = harness defaults
	Queries int     // queries per dataset (default 20)
	K       int     // neighbours for quality metrics where the paper uses 100
	WorkDir string  // scratch directory for on-disk indexes; "" = temp
	Seed    int64
}

func (c *Config) defaults() {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Queries <= 0 {
		c.Queries = 20
	}
	if c.K <= 0 {
		c.K = 100
	}
	if c.WorkDir == "" {
		c.WorkDir = filepath.Join(os.TempDir(), fmt.Sprintf("hdbench-%d", os.Getpid()))
	}
}

// DataSpec describes one of the paper's datasets (Table 4) plus the
// HD-Index parameters Table 3 assigns it.
type DataSpec struct {
	Name       string
	Gen        func(n int, seed int64) *data.Dataset
	BaseN      int // harness size at Scale = 1 (the paper's corpora are larger)
	Tau        int
	Omega      int
	Alpha      int
	MCTau      int  // Multicurves tau (must divide dim)
	Possible   bool // false when the paper marks Multicurves "NP"
	QueryNoise float64
}

// Specs returns the stand-ins for the paper's datasets, in Table 4 order.
func Specs() []DataSpec {
	return []DataSpec{
		{Name: "SIFT10K", Gen: data.SIFTLike, BaseN: 10000, Tau: 8, Omega: 8, Alpha: 2048, MCTau: 8, Possible: true, QueryNoise: 0.01},
		{Name: "Audio", Gen: data.AudioLike, BaseN: 10000, Tau: 8, Omega: 16, Alpha: 2048, MCTau: 8, Possible: true, QueryNoise: 0.01},
		{Name: "SUN", Gen: data.SUNLike, BaseN: 4000, Tau: 16, Omega: 16, Alpha: 2048, MCTau: 16, Possible: false, QueryNoise: 0.01},
		{Name: "SIFT1M", Gen: data.SIFTLike, BaseN: 50000, Tau: 8, Omega: 8, Alpha: 4096, MCTau: 8, Possible: true, QueryNoise: 0.01},
		{Name: "Yorck", Gen: data.YorckLike, BaseN: 30000, Tau: 8, Omega: 16, Alpha: 4096, MCTau: 8, Possible: true, QueryNoise: 0.01},
		{Name: "Enron", Gen: data.EnronLike, BaseN: 1500, Tau: 37, Omega: 16, Alpha: 1024, MCTau: 37, Possible: false, QueryNoise: 0.01},
		{Name: "Glove", Gen: data.GloveLike, BaseN: 20000, Tau: 10, Omega: 16, Alpha: 2048, MCTau: 10, Possible: true, QueryNoise: 0.01},
	}
}

// SpecByName returns the spec with the given name.
func SpecByName(name string) (DataSpec, bool) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, true
		}
	}
	return DataSpec{}, false
}

// Workload is a generated dataset with queries and exact ground truth.
type Workload struct {
	Spec     DataSpec
	Data     *data.Dataset
	Queries  [][]float32
	TruthIDs [][]uint64
	TruthDs  [][]float64
	K        int
}

// MakeWorkload generates the dataset, queries and ground truth for spec
// at the configured scale.
func MakeWorkload(spec DataSpec, cfg Config) *Workload {
	cfg.defaults()
	n := int(float64(spec.BaseN) * cfg.Scale)
	if n < 300 {
		n = 300
	}
	ds := spec.Gen(n, cfg.Seed+int64(len(spec.Name)))
	queries := ds.PerturbedQueries(cfg.Queries, spec.QueryNoise, cfg.Seed+101)
	ids, dists := data.GroundTruth(ds.Vectors, queries, cfg.K)
	return &Workload{Spec: spec, Data: ds, Queries: queries, TruthIDs: ids, TruthDs: dists, K: cfg.K}
}

// RunResult aggregates a method's behaviour on a workload.
type RunResult struct {
	Method     string
	MAP        float64
	Ratio      float64
	AvgQueryMS float64
	IndexBytes int64
	BuildMS    float64
	BuildRAMMB float64 // retained heap growth during build
	QueryRAMMB float64 // retained heap growth during querying
	Err        error   // non-nil when the method cannot run (the paper's NP/CR)
}

// hdAdapter exposes core.Index through the baselines interface, every
// query run at the per-query overrides o.
type hdAdapter struct {
	ix *core.Index
	o  core.SearchOptions
}

func (a hdAdapter) Name() string { return "HD-Index" }
func (a hdAdapter) Search(q []float32, k int) ([]baselines.Result, error) {
	res, _, err := a.ix.Query(context.Background(), q, k, a.o)
	if err != nil {
		return nil, err
	}
	out := make([]baselines.Result, len(res))
	for i, r := range res {
		out[i] = baselines.Result{ID: r.ID, Dist: r.Dist}
	}
	return out, nil
}
func (a hdAdapter) SizeBytes() int64 { return a.ix.SizeOnDisk() }
func (a hdAdapter) Close() error     { return a.ix.Close() }

// Builder constructs a method's index over a workload.
type Builder struct {
	Name  string
	Build func(dir string, w *Workload) (baselines.Index, error)
}

// HDParams returns the paper-recommended HD-Index parameters for a spec,
// clamped to the workload size.
func HDParams(spec DataSpec, n int) core.Params {
	alpha := spec.Alpha
	if alpha > n {
		alpha = n
	}
	gamma := alpha / 4
	if gamma < 1 {
		gamma = alpha
	}
	return core.Params{
		Tau:   spec.Tau,
		Omega: spec.Omega,
		M:     10,
		Alpha: alpha,
		Beta:  alpha,
		Gamma: gamma,
	}
}

// Methods returns the standard builder set of §5, in the paper's order.
// seed keeps runs deterministic.
func Methods(seed int64) []Builder {
	return []Builder{
		{Name: "SRS", Build: func(dir string, w *Workload) (baselines.Index, error) {
			// Paper: SRS-12, c=2, 6 projections, τ=0.1809, t=0.00242.
			// The tiny t is calibrated for millions of points; keep a
			// floor so reduced-scale workloads examine something.
			return srs.Build(w.Data.Vectors, srs.Params{MaxFraction: 0.02, MinCandidate: 64, Seed: seed})
		}},
		{Name: "C2LSH", Build: func(dir string, w *Workload) (baselines.Index, error) {
			return c2lsh.Build(w.Data.Vectors, c2lsh.Params{Seed: seed})
		}},
		{Name: "iDistance", Build: func(dir string, w *Workload) (baselines.Index, error) {
			return idistance.Build(dir, w.Data.Vectors, idistance.Params{Seed: seed})
		}},
		{Name: "Multicurves", Build: func(dir string, w *Workload) (baselines.Index, error) {
			return multicurves.Build(dir, w.Data.Vectors, multicurves.Params{
				Tau: w.Spec.MCTau, Omega: 8, Alpha: w.Spec.Alpha,
			})
		}},
		{Name: "QALSH", Build: func(dir string, w *Workload) (baselines.Index, error) {
			return qalsh.Build(w.Data.Vectors, qalsh.Params{Seed: seed})
		}},
		{Name: "OPQ", Build: func(dir string, w *Workload) (baselines.Index, error) {
			dim := w.Data.Dim
			m := 8
			for dim%m != 0 && m > 1 {
				m--
			}
			// The rotation optimisation solves a ν×ν Procrustes problem
			// per iteration (O(ν³) with our Jacobi SVD); restrict it to
			// moderate dimensionalities and fall back to plain PQ above.
			iters := 2
			if dim > 256 {
				iters = 0
			}
			return opq.Build(w.Data.Vectors, opq.Params{M: m, K: 64, OPQIterations: iters, RerankK: 4 * w.K, Seed: seed})
		}},
		{Name: "HNSW", Build: func(dir string, w *Workload) (baselines.Index, error) {
			return hnsw.Build(w.Data.Vectors, hnsw.Params{M: 10, EfSearch: 2 * w.K, Seed: seed})
		}},
		{Name: "HD-Index", Build: func(dir string, w *Workload) (baselines.Index, error) {
			p := HDParams(w.Spec, len(w.Data.Vectors))
			p.Seed = seed
			ix, err := core.Build(dir, w.Data.Vectors, p)
			if err != nil {
				return nil, err
			}
			return hdAdapter{ix: ix}, nil
		}},
	}
}

// LinearBuilder returns the exact linear-scan "method".
func LinearBuilder() Builder {
	return Builder{Name: "Linear", Build: func(dir string, w *Workload) (baselines.Index, error) {
		return linearscan.New(w.Data.Vectors)
	}}
}

// heapMB returns live heap megabytes after a GC.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// RunMethod builds b over w and measures everything Fig. 8 reports.
func RunMethod(b Builder, w *Workload, dir string, k int) RunResult {
	res := RunResult{Method: b.Name}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		res.Err = err
		return res
	}
	before := heapMB()
	t0 := time.Now()
	ix, err := b.Build(dir, w)
	res.BuildMS = float64(time.Since(t0).Microseconds()) / 1000
	if err != nil {
		res.Err = err
		return res
	}
	defer ix.Close()
	res.BuildRAMMB = heapMB() - before
	if res.BuildRAMMB < 0 {
		res.BuildRAMMB = 0
	}
	res.IndexBytes = ix.SizeBytes()

	q, err := runQueries(w, k, ix.Search)
	if err != nil {
		res.Err = err
		return res
	}
	res.MAP, res.Ratio, res.AvgQueryMS = q.MAP, q.Ratio, q.AvgQueryMS
	// Querying RAM, in the paper's sense: everything that must stay
	// heap-resident to serve queries — the in-memory index structures of
	// HNSW/OPQ/LSH methods, only buffers for the disk-based ones.
	res.QueryRAMMB = heapMB() - before
	if res.QueryRAMMB < 0 {
		res.QueryRAMMB = 0
	}
	return res
}

// runQueries times search over w's queries (slo.Measure) and scores the
// answers at k: the MAP, approximation ratio and mean query time of a
// RunResult, measured on an index that is already built.
func runQueries(w *Workload, k int, search func(q []float32, k int) ([]baselines.Result, error)) (RunResult, error) {
	dists := make([][]float64, 0, len(w.Queries))
	rep, err := slo.Measure(w.Queries, func(q []float32) ([]uint64, error) {
		r, err := search(q, k)
		if err != nil {
			return nil, err
		}
		ids, ds := make([]uint64, len(r)), make([]float64, len(r))
		for i, x := range r {
			ids[i], ds[i] = x.ID, x.Dist
		}
		dists = append(dists, ds)
		return ids, nil
	})
	if err != nil {
		return RunResult{}, err
	}
	var rsum float64
	for qi, ds := range dists {
		tk := w.TruthDs[qi]
		if len(tk) > k {
			tk = tk[:k]
		}
		rsum += metrics.Ratio(ds, tk)
	}
	return RunResult{
		MAP:        metrics.MAP(rep.IDs, w.TruthIDs, k),
		Ratio:      rsum / float64(len(dists)),
		AvgQueryMS: rep.MeanQueryUS / 1000,
	}, nil
}

// Table prints aligned rows.
type Table struct {
	w      io.Writer
	header []string
	rows   [][]string
}

// NewTable starts a table with the given column headers.
func NewTable(w io.Writer, header ...string) *Table {
	return &Table{w: w, header: header}
}

// Row appends a row; values are formatted with %v.
func (t *Table) Row(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Flush renders the table.
func (t *Table) Flush() {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(t.w, "  ")
			}
			fmt.Fprintf(t.w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(t.w)
	}
	line(t.header)
	for _, r := range t.rows {
		line(r)
	}
}
