// Comparison: HD-Index against every baseline of the paper's §5 on one
// clustered dataset — a miniature of Figure 8 runnable in seconds.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"github.com/hd-index/hdindex/internal/bench"
)

func main() {
	spec, ok := bench.SpecByName("SIFT10K")
	if !ok {
		log.Fatal("spec missing")
	}
	cfg := bench.Config{Scale: 0.5, Queries: 20, K: 10, Seed: 21,
		WorkDir: filepath.Join(os.TempDir(), "hdindex-comparison")}
	defer os.RemoveAll(cfg.WorkDir)

	w := bench.MakeWorkload(spec, cfg)
	fmt.Printf("dataset: %d x %d (SIFT-like), %d queries, k=10\n\n",
		len(w.Data.Vectors), w.Data.Dim, len(w.Queries))
	fmt.Printf("%-12s %8s %10s %10s %9s\n", "method", "MAP@10", "ratio", "ms/query", "index MB")

	// Each method is built, timed and scored by the harness's own
	// RunMethod, the step behind every Fig. 8 row.
	for _, b := range append(bench.Methods(cfg.Seed), bench.LinearBuilder()) {
		r := bench.RunMethod(b, w, filepath.Join(cfg.WorkDir, b.Name), 10)
		if r.Err != nil {
			fmt.Printf("%-12s %8s\n", b.Name, "NP")
			continue
		}
		fmt.Printf("%-12s %8.3f %10.3f %10.3f %9.1f\n",
			r.Method, r.MAP, r.Ratio, r.AvgQueryMS, float64(r.IndexBytes)/(1<<20))
	}
}
