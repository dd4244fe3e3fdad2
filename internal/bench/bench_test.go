package bench

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"github.com/hd-index/hdindex/internal/core"
)

// tinyCfg keeps smoke tests fast: a few hundred points, few queries.
func tinyCfg(t *testing.T) Config {
	return Config{Scale: 0.05, Queries: 5, K: 10, WorkDir: t.TempDir(), Seed: 1}
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	// Every table/figure of the paper's evaluation must be registered.
	for _, id := range []string{
		"fig1", "table3", "fig4m", "fig4tau", "fig5", "fig11", "fig12",
		"fig6alpha", "fig6gamma", "fig7", "fig8", "fig10", "fig13",
		"table5", "imagesearch",
		"abl-partition", "abl-curve", "abl-parallel", "abl-cache", "abl-ptolemaic-io",
	} {
		if _, ok := reg[id]; !ok {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if len(IDs()) != len(reg) {
		t.Error("IDs() inconsistent with Registry()")
	}
}

func TestRunUnknown(t *testing.T) {
	if err := Run("nope", &bytes.Buffer{}, tinyCfg(t)); err == nil {
		t.Fatal("unknown experiment must fail")
	}
}

func TestTable3Experiment(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("table3", &buf, tinyCfg(t)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"SIFTn", "63", "36", "13", "28"} {
		if !strings.Contains(out, want) {
			t.Errorf("table3 output missing %q:\n%s", want, out)
		}
	}
}

func TestMakeWorkloadShape(t *testing.T) {
	spec, ok := SpecByName("SIFT10K")
	if !ok {
		t.Fatal("spec missing")
	}
	w := MakeWorkload(spec, tinyCfg(t))
	if len(w.Data.Vectors) < 300 {
		t.Fatalf("workload too small: %d", len(w.Data.Vectors))
	}
	if len(w.Queries) != 5 || len(w.TruthIDs) != 5 {
		t.Fatalf("queries %d truth %d", len(w.Queries), len(w.TruthIDs))
	}
	if len(w.TruthIDs[0]) != 10 {
		t.Fatalf("truth depth %d", len(w.TruthIDs[0]))
	}
}

func TestRunMethodHDIndex(t *testing.T) {
	spec, _ := SpecByName("SIFT10K")
	cfg := tinyCfg(t)
	w := MakeWorkload(spec, cfg)
	var hd Builder
	for _, b := range Methods(cfg.Seed) {
		if b.Name == "HD-Index" {
			hd = b
		}
	}
	r := RunMethod(hd, w, t.TempDir(), 10)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.MAP <= 0 || r.MAP > 1 {
		t.Errorf("MAP = %v", r.MAP)
	}
	if r.Ratio < 1 {
		t.Errorf("ratio = %v", r.Ratio)
	}
	if r.IndexBytes <= 0 || r.AvgQueryMS <= 0 {
		t.Errorf("size/time not measured: %+v", r)
	}
}

func TestFig4TauSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig4tau", &buf, tinyCfg(t)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "tau") {
		t.Error("fig4tau produced no table")
	}
}

func TestAblationCurveSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("abl-curve", &buf, tinyCfg(t)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "hilbert") || !strings.Contains(out, "zorder") {
		t.Errorf("ablation output incomplete:\n%s", out)
	}
}

func TestImageSearchSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("imagesearch", &buf, tinyCfg(t)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mean overlap") {
		t.Error("image search produced no summary")
	}
}

func TestTableFormatting(t *testing.T) {
	var buf bytes.Buffer
	tbl := NewTable(&buf, "a", "bb")
	tbl.Row(1, 2.5)
	tbl.Row("xxx", "y")
	tbl.Flush()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "a") {
		t.Error("header missing")
	}
}

// tableRows returns the cells of every data row in out: the lines
// between a table's column header and the blank line closing it.
func tableRows(out string) [][]string {
	var rows [][]string
	lines := strings.Split(out, "\n")
	for i := 0; i < len(lines); i++ {
		if !strings.HasPrefix(lines[i], "Figure") && !strings.HasPrefix(lines[i], "Ablation") {
			continue
		}
		for i += 2; i < len(lines) && strings.TrimSpace(lines[i]) != ""; i++ {
			rows = append(rows, strings.Fields(lines[i]))
		}
	}
	return rows
}

// rebuiltMAP is the MAP@10, as the tables print it, of w's queries on an
// index built with p: the reference a row measured through per-query
// options on a shared build must match.
func rebuiltMAP(t *testing.T, w *Workload, p core.Params) string {
	t.Helper()
	r, err := runHD(w, t.TempDir(), p, 10)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%.4g", r.MAP)
}

// TestQueryTimeFiguresMatchRebuiltIndexes runs each experiment that
// sweeps query-time knobs on one build and checks every row's MAP@10
// against an index rebuilt with that row's parameters. A row whose γ
// is below k (want "") is only counted: a per-query γ floors at k.
func TestQueryTimeFiguresMatchRebuiltIndexes(t *testing.T) {
	cfg := tinyCfg(t)
	cfg.Queries = 20 // enough for MAP@10 to tell the rows apart
	sift, _ := SpecByName("SIFT10K")
	siftW := MakeWorkload(sift, cfg)
	n := len(siftW.Data.Vectors)
	params := func(spec DataSpec, w *Workload, alpha, beta, gamma int, pto bool) core.Params {
		p := HDParams(spec, len(w.Data.Vectors))
		p.Alpha, p.Beta, p.Gamma, p.UsePtolemaic, p.Seed = alpha, beta, gamma, pto, cfg.Seed
		return p
	}
	cases := []struct {
		exp    string
		mapCol int
		want   func(t *testing.T) []string
	}{
		{"fig5", 3, func(t *testing.T) (want []string) {
			for _, name := range []string{"SIFT10K", "Audio"} {
				spec, _ := SpecByName(name)
				w := MakeWorkload(spec, cfg)
				a := min(4096, len(w.Data.Vectors))
				for _, combo := range [][2]int{{1, 4}, {2, 2}, {1, 2}} {
					beta := a / combo[0]
					gamma := beta / combo[1]
					want = append(want,
						rebuiltMAP(t, w, params(spec, w, a, beta, gamma, true)),
						rebuiltMAP(t, w, params(spec, w, a, gamma, gamma, false)))
				}
			}
			return want
		}},
		{"fig6alpha", 3, func(t *testing.T) (want []string) {
			for _, ratio := range []int{2, 4, 8} {
				for _, a := range []int{n / 8, n / 4, n / 2, n} {
					if g := a / ratio; g < cfg.K {
						want = append(want, "")
					} else {
						want = append(want, rebuiltMAP(t, siftW, params(sift, siftW, a, g, g, false)))
					}
				}
			}
			return want
		}},
		{"fig6gamma", 2, func(t *testing.T) (want []string) {
			a := min(4096, n)
			for _, g := range []int{128, 256, 512, 1024, 2048, 4096} {
				if g <= a {
					want = append(want, rebuiltMAP(t, siftW, params(sift, siftW, a, g, g, false)))
				}
			}
			return want
		}},
		{"abl-cache", 3, func(t *testing.T) []string {
			p := HDParams(sift, n)
			p.Seed = cfg.Seed
			off := p
			off.DisableCache = true
			return []string{rebuiltMAP(t, siftW, p), rebuiltMAP(t, siftW, off)}
		}},
		{"abl-ptolemaic-io", 2, func(t *testing.T) []string {
			p := HDParams(sift, n)
			p.DisableCache = true
			p.Seed = cfg.Seed
			pto := p
			pto.UsePtolemaic = true
			return []string{rebuiltMAP(t, siftW, p), rebuiltMAP(t, siftW, pto)}
		}},
	}
	for _, c := range cases {
		t.Run(c.exp, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Run(c.exp, &buf, cfg); err != nil {
				t.Fatal(err)
			}
			rows, want := tableRows(buf.String()), c.want(t)
			if len(rows) != len(want) {
				t.Fatalf("%d rows, want %d:\n%s", len(rows), len(want), buf.String())
			}
			for i, row := range rows {
				if want[i] != "" && row[c.mapCol] != want[i] {
					t.Errorf("row %v: MAP@10 %s, rebuilt index %s", row, row[c.mapCol], want[i])
				}
			}
			switch c.exp {
			case "abl-cache":
				// With the pool off every page touch is a read, so the
				// reopened row reads exactly what a cache-off build does.
				p := HDParams(sift, n)
				p.DisableCache, p.Seed = true, cfg.Seed
				ix, err := core.Build(t.TempDir(), siftW.Data.Vectors, p)
				if err != nil {
					t.Fatal(err)
				}
				defer ix.Close()
				_, reads, err := runIO(ix, siftW, core.SearchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if want := fmt.Sprintf("%.4g", reads); rows[1][2] != want {
					t.Errorf("cache-off page reads per query %s, cache-off build %s", rows[1][2], want)
				}
			case "abl-ptolemaic-io":
				// §5.2.5: the Ptolemaic filter is I/O-free. Both rows walk
				// the same leaves and refine γ candidates each; only which
				// vector pages those candidates sit on differs.
				tri, _ := strconv.ParseFloat(rows[0][1], 64)
				pto, _ := strconv.ParseFloat(rows[1][1], 64)
				if tri <= 0 || math.Abs(pto-tri) > 0.05*tri {
					t.Errorf("page reads per query: triangular %v, Ptolemaic %v (want within 5%%)", tri, pto)
				}
			}
		})
	}
}
