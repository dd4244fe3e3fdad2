package bench

import (
	"fmt"
	"io"
	"sort"
)

// Experiment is a registered, runnable reproduction of one table/figure.
type Experiment struct {
	ID          string
	Description string
	Run         func(out io.Writer, cfg Config) error
}

// Registry returns all experiments, keyed by id.
func Registry() map[string]Experiment {
	exps := []Experiment{
		{"fig1", "MAP@10 vs approximation ratio, 6 methods, SIFT10K & Audio", Fig1},
		{"table3", "RDB-tree leaf orders from Eq. (4)", Table3},
		{"fig4m", "effect of the number of reference objects m (Fig. 4a-d)", Fig4M},
		{"fig4tau", "effect of the number of RDB-trees tau (Fig. 4e-h)", Fig4Tau},
		{"fig5", "triangular vs Ptolemaic filtering at alpha=4096 (Fig. 5)", func(w io.Writer, c Config) error { return Fig5(w, c, 4096) }},
		{"fig11", "filtering comparison at alpha=2048 (Fig. 11)", func(w io.Writer, c Config) error { return Fig5(w, c, 2048) }},
		{"fig12", "filtering comparison at alpha=8192 (Fig. 12)", func(w io.Writer, c Config) error { return Fig5(w, c, 8192) }},
		{"fig6alpha", "varying alpha at alpha/gamma in {2,4,8} (Fig. 6a-f)", Fig6Alpha},
		{"fig6gamma", "varying gamma at alpha=4096 (Fig. 6g,h)", Fig6Gamma},
		{"fig7", "MAP@10 and ratio across 5 datasets (Fig. 7)", Fig7},
		{"fig8", "MAP@100/time/index size/RAM for all methods (Fig. 8)", func(w io.Writer, c Config) error {
			_, err := Fig8(w, c)
			return err
		}},
		{"fig10", "reference selection algorithms (Fig. 10)", Fig10},
		{"fig13", "MAP@k and time vs k (Fig. 13)", Fig13},
		{"table5", "gains of HD-Index over each method (Table 5)", Table5},
		{"imagesearch", "Borda-count image retrieval (§5.5, Table 6)", ImageSearch},
		{"abl-partition", "ablation: contiguous vs random partitioning (§5.2.1)", AblationPartition},
		{"abl-curve", "ablation: Hilbert vs Z-order curve", AblationCurve},
		{"abl-parallel", "ablation: sequential vs parallel tree search (§5.2.8)", AblationParallel},
		{"abl-cache", "ablation: buffer pool on vs off (§5 protocol)", AblationCache},
		{"abl-ptolemaic-io", "ablation: Ptolemaic filter is I/O-free (§5.2.5)", AblationPtolemaicIO},
		{"abl-scaling", "ablation: query time vs dataset size (§5.4.2)", AblationScaling},
	}
	m := make(map[string]Experiment, len(exps))
	for _, e := range exps {
		m[e.ID] = e
	}
	return m
}

// IDs returns the experiment ids in stable order.
func IDs() []string {
	reg := Registry()
	ids := make([]string, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes the experiment with the given id.
func Run(id string, out io.Writer, cfg Config) error {
	e, ok := Registry()[id]
	if !ok {
		return fmt.Errorf("bench: unknown experiment %q (have %v)", id, IDs())
	}
	return e.Run(out, cfg)
}
