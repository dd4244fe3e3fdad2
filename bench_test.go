// Package hdindex's benchmark suite regenerates every table and figure
// of the paper's evaluation (§5) at reduced scale — one testing.B per
// experiment, each driving the same internal/bench runner that
// cmd/hdbench runs at full scale. Run with:
//
//	go test -bench=. -benchmem
//
// The printed tables are the reproduction artefacts; b.N loops re-run
// the full experiment, so -benchtime=1x (the default for long cases) is
// typical.
//
// External test package: the suite drives internal/bench only and needs
// nothing unexported from the facade.
package hdindex_test

import (
	"fmt"
	"io"
	"os"
	"testing"

	"github.com/hd-index/hdindex/internal/bench"
)

// benchScale keeps every experiment in the seconds range. Override the
// full reproduction via cmd/hdbench.
const benchScale = 0.1

func benchCfg(b *testing.B) bench.Config {
	return bench.Config{
		Scale:   benchScale,
		Queries: 10,
		K:       20,
		WorkDir: b.TempDir(),
		Seed:    42,
	}
}

// runExperiment executes one registered experiment once per b.N,
// printing its table on the first iteration only.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		var out io.Writer = io.Discard
		if i == 0 {
			out = os.Stdout
			fmt.Printf("\n===== %s =====\n", id)
		}
		cfg := benchCfg(b)
		if err := bench.Run(id, out, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1_MAPvsRatio regenerates Figure 1 (MAP vs approximation
// ratio, SIFT10K and Audio, k = 10).
func BenchmarkFig1_MAPvsRatio(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkTable3_LeafOrders regenerates Table 3 (RDB-tree leaf orders
// from Eq. 4).
func BenchmarkTable3_LeafOrders(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkFig4_RefObjects regenerates Figure 4(a-d): the m sweep.
func BenchmarkFig4_RefObjects(b *testing.B) { runExperiment(b, "fig4m") }

// BenchmarkFig4_Trees regenerates Figure 4(e-h): the τ sweep.
func BenchmarkFig4_Trees(b *testing.B) { runExperiment(b, "fig4tau") }

// BenchmarkFig5_Filters regenerates Figure 5: triangular vs Ptolemaic
// filtering at α=4096.
func BenchmarkFig5_Filters(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig11_FiltersAlpha2048 regenerates Figure 11 (α=2048).
func BenchmarkFig11_FiltersAlpha2048(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFig12_FiltersAlpha8192 regenerates Figure 12 (α=8192).
func BenchmarkFig12_FiltersAlpha8192(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkFig6_AlphaSweep regenerates Figure 6(a-f): the α sweep.
func BenchmarkFig6_AlphaSweep(b *testing.B) { runExperiment(b, "fig6alpha") }

// BenchmarkFig6_GammaSweep regenerates Figure 6(g,h): the γ sweep.
func BenchmarkFig6_GammaSweep(b *testing.B) { runExperiment(b, "fig6gamma") }

// BenchmarkFig7_QualityAcrossDatasets regenerates Figure 7.
func BenchmarkFig7_QualityAcrossDatasets(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8_FullComparison regenerates Figure 8 (MAP@k, query time,
// index size, build RAM, query RAM across all methods and datasets).
func BenchmarkFig8_FullComparison(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig10_RefSelection regenerates Figure 10: reference-object
// selection algorithms.
func BenchmarkFig10_RefSelection(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig13_VaryingK regenerates Figure 13: MAP@k and time vs k.
func BenchmarkFig13_VaryingK(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkTable5_Gains regenerates Table 5: the per-method gains of
// HD-Index in query time and MAP.
func BenchmarkTable5_Gains(b *testing.B) { runExperiment(b, "table5") }

// BenchmarkTable6_ImageSearch regenerates the §5.5 image-retrieval
// application (Table 6's pipeline with synthetic images).
func BenchmarkTable6_ImageSearch(b *testing.B) { runExperiment(b, "imagesearch") }

// BenchmarkAblation_Partitioning reproduces the §5.2.1 claim that the
// partitioning scheme barely matters.
func BenchmarkAblation_Partitioning(b *testing.B) { runExperiment(b, "abl-partition") }

// BenchmarkAblation_Curve quantifies Hilbert vs Z-order.
func BenchmarkAblation_Curve(b *testing.B) { runExperiment(b, "abl-curve") }

// BenchmarkAblation_Parallel measures parallel tree search (§5.2.8).
func BenchmarkAblation_Parallel(b *testing.B) { runExperiment(b, "abl-parallel") }

// BenchmarkAblation_Cache compares buffer pool on/off (§5 protocol).
func BenchmarkAblation_Cache(b *testing.B) { runExperiment(b, "abl-cache") }

// BenchmarkAblation_PtolemaicIO verifies §5.2.5: the Ptolemaic filter
// changes CPU time, not page reads.
func BenchmarkAblation_PtolemaicIO(b *testing.B) { runExperiment(b, "abl-ptolemaic-io") }

// BenchmarkAblation_Scaling verifies §5.4.2: query time grows far
// slower than dataset size.
func BenchmarkAblation_Scaling(b *testing.B) { runExperiment(b, "abl-scaling") }
