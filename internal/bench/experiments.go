package bench

import (
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"time"

	"github.com/hd-index/hdindex/internal/baselines"
	"github.com/hd-index/hdindex/internal/core"
	"github.com/hd-index/hdindex/internal/rdbtree"
	"github.com/hd-index/hdindex/internal/refsel"
)

// runHD builds an HD-Index with params p over w and evaluates it at k.
func runHD(w *Workload, dir string, p core.Params, k int) (RunResult, error) {
	b := Builder{Name: "HD-Index", Build: func(dir string, wl *Workload) (baselines.Index, error) {
		cix, err := core.Build(dir, wl.Data.Vectors, p)
		if err != nil {
			return nil, err
		}
		return hdAdapter{ix: cix}, nil
	}}
	res := RunMethod(b, w, dir, k)
	return res, res.Err
}

// hdRow is one row of a figure that varies only query-time knobs: its
// leading cells and the per-query options it is measured at.
type hdRow struct {
	cells []any
	o     core.SearchOptions
}

// sweepHD builds w's HD-Index once, at the paper's parameters, and adds
// each row to t measured on it at k = 10, the row's cells followed by
// query ms and MAP@10. α, β, γ and the Ptolemaic filter are per-query
// knobs (§5.2.5–5.2.6): an override answers exactly as an index rebuilt
// with those parameters would, so the rows share one build.
func sweepHD(t *Table, w *Workload, dir string, seed int64, rows []hdRow) error {
	p := HDParams(w.Spec, len(w.Data.Vectors))
	p.Seed = seed
	ix, err := core.Build(dir, w.Data.Vectors, p)
	if err != nil {
		return err
	}
	defer ix.Close()
	for _, row := range rows {
		r, err := runQueries(w, 10, hdAdapter{ix, row.o}.Search)
		if err != nil {
			return err
		}
		t.Row(append(row.cells, r.AvgQueryMS, r.MAP)...)
	}
	return nil
}

// Fig1 reproduces Figure 1: MAP@10 vs approximation ratio for the six
// methods on SIFT10K and Audio (k = 10).
func Fig1(out io.Writer, cfg Config) error {
	cfg.defaults()
	cfg.K = 10
	for _, name := range []string{"SIFT10K", "Audio"} {
		spec, _ := SpecByName(name)
		w := MakeWorkload(spec, cfg)
		fmt.Fprintf(out, "\nFigure 1 (%s): MAP@10 and approximation ratio, k=10\n", name)
		t := NewTable(out, "method", "MAP@10", "ratio")
		for _, b := range Methods(cfg.Seed) {
			if b.Name == "OPQ" || b.Name == "HNSW" {
				continue // Fig. 1 compares the six disk-era methods
			}
			r := RunMethod(b, w, filepath.Join(cfg.WorkDir, name, b.Name), 10)
			if r.Err != nil {
				t.Row(b.Name, "NP", "NP")
				continue
			}
			t.Row(b.Name, r.MAP, r.Ratio)
		}
		t.Flush()
	}
	return nil
}

// Table3 reproduces Table 3: RDB-tree leaf orders from Eq. (4).
func Table3(out io.Writer, cfg Config) error {
	fmt.Fprintln(out, "\nTable 3: RDB-tree leaf orders (page size 4096, Eq. 4)")
	t := NewTable(out, "dataset", "nu", "omega", "eta", "m", "leaf order")
	rows := []struct {
		name              string
		nu, omega, eta, m int
	}{
		{"SIFTn", 128, 8, 16, 10},
		{"Yorck", 128, 32, 16, 10},
		{"SUN", 512, 32, 64, 10},
		{"Audio", 192, 32, 24, 10},
		{"Enron", 1369, 16, 37, 10},
		{"Glove", 100, 32, 10, 10},
	}
	for _, r := range rows {
		t.Row(r.name, r.nu, r.omega, r.eta, r.m, rdbtree.LeafOrder(4096, r.eta, r.omega, r.m))
	}
	t.Flush()
	fmt.Fprintln(out, "note: Enron/Glove print 18/40 in the paper's table but Eq. (4) yields the values above, and the index implements the equation")
	return nil
}

// Fig4M reproduces Figure 4(a-d): the effect of the number of reference
// objects m on query time, index size, MAP@10 and ratio.
func Fig4M(out io.Writer, cfg Config) error {
	cfg.defaults()
	cfg.K = 10
	for _, name := range []string{"SIFT10K", "Audio"} {
		spec, _ := SpecByName(name)
		w := MakeWorkload(spec, cfg)
		fmt.Fprintf(out, "\nFigure 4(a-d) (%s): varying reference objects m\n", name)
		t := NewTable(out, "m", "query ms", "index MB", "MAP@10", "ratio")
		for _, m := range []int{2, 5, 10, 15, 20} {
			p := HDParams(spec, len(w.Data.Vectors))
			p.M = m
			p.Seed = cfg.Seed
			r, err := runHD(w, filepath.Join(cfg.WorkDir, name, fmt.Sprintf("m%d", m)), p, 10)
			if err != nil {
				return err
			}
			t.Row(m, r.AvgQueryMS, float64(r.IndexBytes)/(1<<20), r.MAP, r.Ratio)
		}
		t.Flush()
	}
	return nil
}

// Fig4Tau reproduces Figure 4(e-h): the effect of the number of
// RDB-trees τ.
func Fig4Tau(out io.Writer, cfg Config) error {
	cfg.defaults()
	cfg.K = 10
	spec, _ := SpecByName("SIFT10K")
	w := MakeWorkload(spec, cfg)
	fmt.Fprintln(out, "\nFigure 4(e-h) (SIFT10K): varying number of RDB-trees tau")
	t := NewTable(out, "tau", "query ms", "index MB", "MAP@10", "ratio")
	for _, tau := range []int{2, 4, 8, 16, 32} {
		p := HDParams(spec, len(w.Data.Vectors))
		p.Tau = tau
		p.Seed = cfg.Seed
		r, err := runHD(w, filepath.Join(cfg.WorkDir, "fig4tau", fmt.Sprintf("t%d", tau)), p, 10)
		if err != nil {
			return err
		}
		t.Row(tau, r.AvgQueryMS, float64(r.IndexBytes)/(1<<20), r.MAP, r.Ratio)
	}
	t.Flush()
	return nil
}

// Fig5 reproduces Figures 5/11/12: triangular-only vs combined
// triangular+Ptolemaic filtering at reduction ratios (α:β, β:γ) of
// (1,4), (2,2) and (1,2), for a given α.
func Fig5(out io.Writer, cfg Config, alpha int) error {
	cfg.defaults()
	cfg.K = 10
	for _, name := range []string{"SIFT10K", "Audio"} {
		spec, _ := SpecByName(name)
		w := MakeWorkload(spec, cfg)
		a := alpha
		if a <= 0 {
			a = 4096
		}
		if a > len(w.Data.Vectors) {
			a = len(w.Data.Vectors)
		}
		fmt.Fprintf(out, "\nFigure 5 (%s): filtering mechanisms at alpha=%d\n", name, a)
		t := NewTable(out, "a:b,b:g", "filter", "query ms", "MAP@10")
		var rows []hdRow
		on, off := true, false
		for _, combo := range [][2]int{{1, 4}, {2, 2}, {1, 2}} {
			beta := a / combo[0]
			gamma := max(beta/combo[1], cfg.K) // a per-query γ yields k
			ratios := fmt.Sprintf("%d:%d", combo[0], combo[1])
			rows = append(rows,
				// Combined: alpha -> beta (triangular) -> gamma (Ptolemaic).
				hdRow{[]any{ratios, "tri+pto"}, core.SearchOptions{Alpha: a, Beta: beta, Gamma: gamma, Ptolemaic: &on}},
				// Triangular alone with the same overall reduction alpha -> gamma.
				hdRow{[]any{ratios, "tri"}, core.SearchOptions{Alpha: a, Gamma: gamma, Ptolemaic: &off}})
		}
		if err := sweepHD(t, w, filepath.Join(cfg.WorkDir, name, "fig5"), cfg.Seed, rows); err != nil {
			return err
		}
		t.Flush()
	}
	return nil
}

// Fig6Alpha reproduces Figure 6(a-f): varying α at α/γ ∈ {2,4,8}.
func Fig6Alpha(out io.Writer, cfg Config) error {
	cfg.defaults()
	cfg.K = 10
	spec, _ := SpecByName("SIFT10K")
	w := MakeWorkload(spec, cfg)
	n := len(w.Data.Vectors)
	fmt.Fprintln(out, "\nFigure 6(a-f) (SIFT10K): varying alpha (triangular only)")
	t := NewTable(out, "alpha", "a/g", "query ms", "MAP@10")
	alphas := []int{1024, 2048, 4096, 8192}
	if alphas[0] > n {
		// Reduced-scale run: sweep proportionally instead.
		alphas = []int{n / 8, n / 4, n / 2, n}
	}
	var rows []hdRow
	for _, ratio := range []int{2, 4, 8} {
		for _, a := range alphas {
			if a > n || a/ratio < 1 {
				continue
			}
			// A per-query γ yields k: only reduced-scale runs, whose
			// α/8 falls below k, reach the floor.
			gamma := max(a/ratio, cfg.K)
			rows = append(rows, hdRow{[]any{a, ratio}, core.SearchOptions{Alpha: a, Gamma: gamma}})
		}
	}
	if err := sweepHD(t, w, filepath.Join(cfg.WorkDir, "fig6a"), cfg.Seed, rows); err != nil {
		return err
	}
	t.Flush()
	return nil
}

// Fig6Gamma reproduces Figure 6(g,h): varying γ at α = 4096.
func Fig6Gamma(out io.Writer, cfg Config) error {
	cfg.defaults()
	cfg.K = 10
	spec, _ := SpecByName("SIFT10K")
	w := MakeWorkload(spec, cfg)
	n := len(w.Data.Vectors)
	a := 4096
	if a > n {
		a = n
	}
	fmt.Fprintf(out, "\nFigure 6(g,h) (SIFT10K): varying gamma at alpha=%d\n", a)
	t := NewTable(out, "gamma", "query ms", "MAP@10")
	var rows []hdRow
	for _, g := range []int{128, 256, 512, 1024, 2048, 4096} {
		if g <= a {
			rows = append(rows, hdRow{[]any{g}, core.SearchOptions{Alpha: a, Gamma: g}})
		}
	}
	if err := sweepHD(t, w, filepath.Join(cfg.WorkDir, "fig6g"), cfg.Seed, rows); err != nil {
		return err
	}
	t.Flush()
	return nil
}

// Fig7 reproduces Figure 7: MAP@10 and ratio across five datasets for
// the six comparison methods.
func Fig7(out io.Writer, cfg Config) error {
	cfg.defaults()
	cfg.K = 10
	for _, name := range []string{"SIFT10K", "Audio", "SUN", "SIFT1M", "Yorck"} {
		spec, _ := SpecByName(name)
		w := MakeWorkload(spec, cfg)
		fmt.Fprintf(out, "\nFigure 7 (%s): MAP@10 and ratio, k=10\n", name)
		t := NewTable(out, "method", "MAP@10", "ratio")
		for _, b := range Methods(cfg.Seed) {
			if b.Name == "OPQ" || b.Name == "HNSW" {
				continue
			}
			r := RunMethod(b, w, filepath.Join(cfg.WorkDir, "fig7", name, b.Name), 10)
			if r.Err != nil {
				t.Row(b.Name, "NP", "NP")
				continue
			}
			t.Row(b.Name, r.MAP, r.Ratio)
		}
		t.Flush()
	}
	return nil
}

// Fig8 reproduces Figure 8 (and feeds Table 5): MAP@100, query time,
// index size, and RAM during indexing and querying, for every method on
// every dataset group.
func Fig8(out io.Writer, cfg Config) (map[string]map[string]RunResult, error) {
	cfg.defaults()
	k := cfg.K
	all := make(map[string]map[string]RunResult)
	groups := [][]string{
		{"SIFT10K", "Audio", "SUN"},
		{"SIFT1M", "Yorck"},
		{"Enron", "Glove"},
	}
	for gi, group := range groups {
		for _, name := range group {
			spec, _ := SpecByName(name)
			w := MakeWorkload(spec, cfg)
			fmt.Fprintf(out, "\nFigure 8 group %d (%s): k=%d\n", gi+1, name, k)
			t := NewTable(out, "method", "MAP", "query ms", "index MB", "build RAM MB", "query RAM MB")
			perDs := make(map[string]RunResult)
			for _, b := range Methods(cfg.Seed) {
				r := RunMethod(b, w, filepath.Join(cfg.WorkDir, "fig8", name, b.Name), k)
				perDs[b.Name] = r
				if r.Err != nil {
					t.Row(b.Name, "NP", "NP", "NP", "NP", "NP")
					continue
				}
				t.Row(b.Name, r.MAP, r.AvgQueryMS, float64(r.IndexBytes)/(1<<20), r.BuildRAMMB, r.QueryRAMMB)
			}
			t.Flush()
			all[name] = perDs
		}
	}
	return all, nil
}

// Table5 reproduces Table 5: the gains of HD-Index over every other
// method in query time and MAP@100, per dataset.
func Table5(out io.Writer, cfg Config) error {
	cfg.defaults()
	results, err := Fig8(io.Discard, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nTable 5: gains of HD-Index over other methods (k=%d)\n", cfg.K)
	t := NewTable(out, "dataset", "HD ms", "metric", "C2LSH", "SRS", "Multicurves", "QALSH", "OPQ", "HNSW", "HD MAP")
	order := []string{"C2LSH", "SRS", "Multicurves", "QALSH", "OPQ", "HNSW"}
	for _, name := range []string{"SIFT10K", "Audio", "SUN", "SIFT1M", "Yorck", "Enron", "Glove"} {
		perDs, ok := results[name]
		if !ok {
			continue
		}
		hd := perDs["HD-Index"]
		if hd.Err != nil {
			continue
		}
		timeRow := []interface{}{name, hd.AvgQueryMS, "time gain"}
		mapRow := []interface{}{name, "", "MAP gain"}
		for _, m := range order {
			r := perDs[m]
			if r.Err != nil {
				timeRow = append(timeRow, "NP")
				mapRow = append(mapRow, "NP")
				continue
			}
			timeRow = append(timeRow, fmt.Sprintf("%.3gx", r.AvgQueryMS/hd.AvgQueryMS))
			if r.MAP > 0 {
				mapRow = append(mapRow, fmt.Sprintf("%.3gx", hd.MAP/r.MAP))
			} else {
				mapRow = append(mapRow, "inf")
			}
		}
		timeRow = append(timeRow, hd.MAP)
		mapRow = append(mapRow, hd.MAP)
		t.Row(timeRow...)
		t.Row(mapRow...)
	}
	t.Flush()
	fig9Summary(out, results)
	return nil
}

// fig9Summary derives Figure 9's qualitative Q/M/E classification from
// the measured Fig. 8 numbers: Quality = MAP within 80% of the best on
// a majority of datasets; Memory = index + query RAM within 4x of the
// smallest; Efficiency = query time within 10x of the fastest.
func fig9Summary(out io.Writer, results map[string]map[string]RunResult) {
	methods := []string{"SRS", "C2LSH", "Multicurves", "QALSH", "OPQ", "HNSW", "HD-Index"}
	votes := map[string][3]int{} // Q, M, E wins per method
	total := 0
	for _, perDs := range results {
		var bestMAP, minFoot, minTime float64
		first := true
		for _, m := range methods {
			r, ok := perDs[m]
			if !ok || r.Err != nil {
				continue
			}
			foot := float64(r.IndexBytes)/(1<<20) + r.QueryRAMMB
			if first {
				bestMAP, minFoot, minTime = r.MAP, foot, r.AvgQueryMS
				first = false
				continue
			}
			if r.MAP > bestMAP {
				bestMAP = r.MAP
			}
			if foot < minFoot {
				minFoot = foot
			}
			if r.AvgQueryMS < minTime {
				minTime = r.AvgQueryMS
			}
		}
		if first {
			continue
		}
		total++
		for _, m := range methods {
			r, ok := perDs[m]
			if !ok || r.Err != nil {
				continue
			}
			v := votes[m]
			if r.MAP >= 0.8*bestMAP {
				v[0]++
			}
			if float64(r.IndexBytes)/(1<<20)+r.QueryRAMMB <= 4*minFoot {
				v[1]++
			}
			if r.AvgQueryMS <= 10*minTime {
				v[2]++
			}
			votes[m] = v
		}
	}
	if total == 0 {
		return
	}
	fmt.Fprintln(out, "\nFigure 9: qualitative classification derived from the measurements")
	t := NewTable(out, "method", "quality", "memory", "efficiency", "class")
	for _, m := range methods {
		v := votes[m]
		class := ""
		if v[0]*2 >= total {
			class += "Q"
		}
		if v[1]*2 >= total {
			class += "M"
		}
		if v[2]*2 >= total {
			class += "E"
		}
		if class == "" {
			class = "-"
		}
		t.Row(m, fmt.Sprintf("%d/%d", v[0], total), fmt.Sprintf("%d/%d", v[1], total),
			fmt.Sprintf("%d/%d", v[2], total), class)
	}
	t.Flush()
}

// Fig10 reproduces Figure 10: reference-object selection algorithms —
// selection time and the MAP the resulting index achieves.
func Fig10(out io.Writer, cfg Config) error {
	cfg.defaults()
	for _, name := range []string{"Audio", "SIFT1M"} {
		spec, _ := SpecByName(name)
		w := MakeWorkload(spec, cfg)
		fmt.Fprintf(out, "\nFigure 10 (%s): reference selection algorithms, k=%d\n", name, cfg.K)
		t := NewTable(out, "selector", "selection ms", "MAP")
		for _, sel := range []core.RefSelection{core.RefRandom, core.RefSSS, core.RefSSSDyn} {
			// Time the selection itself.
			rng := rand.New(rand.NewSource(cfg.Seed))
			t0 := time.Now()
			switch sel {
			case core.RefRandom:
				_, err := refsel.Random(w.Data.Vectors, 10, rng)
				if err != nil {
					return err
				}
			case core.RefSSS:
				_, err := refsel.SSS(w.Data.Vectors, 10, 0.3, rng)
				if err != nil {
					return err
				}
			case core.RefSSSDyn:
				_, err := refsel.SSSDyn(w.Data.Vectors, 10, 0.3, 64, rng)
				if err != nil {
					return err
				}
			}
			selMS := float64(time.Since(t0).Microseconds()) / 1000

			p := HDParams(spec, len(w.Data.Vectors))
			p.RefSelection = sel
			p.Seed = cfg.Seed
			r, err := runHD(w, filepath.Join(cfg.WorkDir, "fig10", name, string(sel)), p, cfg.K)
			if err != nil {
				return err
			}
			t.Row(string(sel), selMS, r.MAP)
		}
		t.Flush()
	}
	return nil
}

// Fig13 reproduces Figure 13: MAP@k and query time for k ∈ {1,5,10,50,100}.
func Fig13(out io.Writer, cfg Config) error {
	cfg.defaults()
	for _, name := range []string{"SIFT10K", "Audio"} {
		spec, _ := SpecByName(name)
		w := MakeWorkload(spec, cfg)
		fmt.Fprintf(out, "\nFigure 13 (%s): varying k\n", name)
		t := NewTable(out, "method", "k", "MAP@k", "query ms")
		for _, b := range Methods(cfg.Seed) {
			if b.Name == "OPQ" || b.Name == "HNSW" {
				continue
			}
			dir := filepath.Join(cfg.WorkDir, "fig13", name, b.Name)
			ix, err := b.Build(dir, w)
			if err != nil {
				t.Row(b.Name, "-", "NP", "NP")
				continue
			}
			for _, k := range []int{1, 5, 10, 50, 100} {
				if k > cfg.K {
					continue // ground truth depth
				}
				r, err := runQueries(w, k, ix.Search)
				if err != nil {
					ix.Close()
					return err
				}
				t.Row(b.Name, k, r.MAP, r.AvgQueryMS)
			}
			ix.Close()
		}
		t.Flush()
	}
	return nil
}

// ImageSearch reproduces §5.5 / Table 6: multi-descriptor image search
// with Borda-count aggregation on a Yorck-like synthetic corpus.
func ImageSearch(out io.Writer, cfg Config) error {
	cfg.defaults()
	return imageSearchImpl(out, cfg)
}
