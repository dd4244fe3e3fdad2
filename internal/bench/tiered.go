package bench

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"github.com/hd-index/hdindex/internal/core"
	"github.com/hd-index/hdindex/internal/metrics"
	"github.com/hd-index/hdindex/internal/shard"
	"github.com/hd-index/hdindex/internal/slo"
)

// TieredResult is one quality tier's row: a named preset (or the SLO
// tuner's auto choice) measured over the workload on the built index.
// The rows exist to show the tier ordering the serving layer promises —
// exact ≥ balanced ≥ fast on recall, the reverse on cost — and that the
// tuner's pick holds its target at a latency below the exact preset.
type TieredResult struct {
	Dataset string `json:"dataset"`
	Preset  string `json:"preset"`
	// Target is the SLO the auto row tuned for; empty on named presets.
	Target string `json:"target,omitempty"`
	// Alpha/Gamma are the resolved cascade the tier ran with.
	Alpha       int     `json:"alpha"`
	Gamma       int     `json:"gamma"`
	MeanQueryUS float64 `json:"mean_query_us"`
	P99QueryUS  float64 `json:"p99_query_us"`
	Recall      float64 `json:"recall"`
	// SLOUnmet reports the tuner found no feasible point (auto row only).
	SLOUnmet bool `json:"slo_unmet,omitempty"`
}

// tieredTarget is the SLO the auto row tunes for — the acceptance bar:
// hold recall ≥ 0.98 at less cost than the exact preset.
const tieredTarget = "recall>=0.98"

// tieredGrid is the α grid the auto row's self-measured frontier walks
// (γ = α/4 floored at k, the paper's ratio — the same shape as an
// `hdbench -sweep alpha=...` run).
var tieredGrid = []int{64, 128, 256, 512, 1024, 2048}

// snapshotTiered measures the quality tiers on one dataset: the three
// named presets resolved exactly the way the server resolves them, then
// the tuner's auto choice over a frontier measured in-process on the
// same index.
func snapshotTiered(spec DataSpec, cfg Config) ([]TieredResult, error) {
	w := MakeWorkload(spec, cfg)
	dir := filepath.Join(cfg.WorkDir, "snapshot-tiered", spec.Name)
	p := HDParams(spec, len(w.Data.Vectors))
	p.Seed = cfg.Seed

	ix, err := shard.Build(dir, w.Data.Vectors, shard.Params{Params: p, Shards: cfg.Shards})
	if err != nil {
		return nil, err
	}
	defer ix.Close()

	ctx := context.Background()
	measure := func(o core.SearchOptions) (TieredResult, error) {
		var out TieredResult
		var got [][]uint64
		var elapsed time.Duration
		perQuery := make([]time.Duration, 0, len(w.Queries))
		for _, q := range w.Queries {
			t0 := time.Now()
			res, st, err := ix.Query(ctx, q, w.K, o)
			d := time.Since(t0)
			elapsed += d
			perQuery = append(perQuery, d)
			if err != nil {
				return out, err
			}
			ids := make([]uint64, len(res))
			for i, r := range res {
				ids[i] = r.ID
			}
			got = append(got, ids)
			out.Alpha, out.Gamma = st.Alpha, st.Gamma
		}
		sort.Slice(perQuery, func(i, j int) bool { return perQuery[i] < perQuery[j] })
		out.Dataset = spec.Name
		out.MeanQueryUS = float64(elapsed.Microseconds()) / float64(len(w.Queries))
		out.P99QueryUS = float64(exactPercentile(perQuery, 0.99).Nanoseconds()) / 1e3
		out.Recall = metrics.MeanRecall(got, w.TruthIDs, w.K)
		return out, nil
	}

	var rows []TieredResult
	for _, preset := range []core.Preset{core.PresetExact, core.PresetBalanced, core.PresetFast} {
		o, err := preset.Options(p, w.K)
		if err != nil {
			return nil, fmt.Errorf("tiered %s: %w", preset, err)
		}
		row, err := measure(o)
		if err != nil {
			return nil, fmt.Errorf("tiered %s: %w", preset, err)
		}
		row.Preset = string(preset)
		rows = append(rows, row)
	}

	// The auto row: measure the frontier grid on this index (true
	// ground-truth recall — offline we can afford it), hand it to the
	// tuner, then run the workload at the point it picked.
	f := &slo.Frontier{FormatVersion: slo.FrontierFormatVersion, Dataset: spec.Name, K: w.K}
	for _, v := range tieredGrid {
		a := max(v, w.K)
		g := max(v/4, w.K)
		row, err := measure(core.SearchOptions{Alpha: a, Gamma: g})
		if err != nil {
			return nil, fmt.Errorf("tiered grid alpha=%d: %w", a, err)
		}
		f.Points = append(f.Points, slo.Point{
			Alpha: row.Alpha, Gamma: row.Gamma,
			MeanQueryUS: row.MeanQueryUS, P99QueryUS: row.P99QueryUS,
			Recall: row.Recall,
		})
	}
	target, err := slo.ParseTarget(tieredTarget)
	if err != nil {
		return nil, err
	}
	tn, err := slo.NewTuner(f, slo.Config{Target: target})
	if err != nil {
		return nil, fmt.Errorf("tiered tuner: %w", err)
	}
	ch := tn.Current()
	auto, err := measure(core.SearchOptions{Alpha: ch.Alpha, Gamma: ch.Gamma})
	if err != nil {
		return nil, fmt.Errorf("tiered auto: %w", err)
	}
	auto.Preset = string(core.PresetAuto)
	auto.Target = tieredTarget
	auto.SLOUnmet = ch.SLOUnmet
	rows = append(rows, auto)
	return rows, nil
}

// PrintTiered renders the tier rows the way the other phases print
// theirs.
func PrintTiered(rows []TieredResult) {
	fmt.Printf("\n== Quality tiers (presets + SLO tuner at %s) ==\n", tieredTarget)
	fmt.Printf("  %-10s %-9s %7s %7s %12s %12s %8s %s\n",
		"dataset", "preset", "alpha", "gamma", "mean(µs)", "p99(µs)", "recall", "slo")
	for _, r := range rows {
		slo := ""
		if r.Target != "" {
			slo = r.Target
			if r.SLOUnmet {
				slo += " UNMET"
			}
		}
		fmt.Printf("  %-10s %-9s %7d %7d %12.1f %12.1f %8.4f %s\n",
			r.Dataset, r.Preset, r.Alpha, r.Gamma, r.MeanQueryUS, r.P99QueryUS, r.Recall, slo)
	}
}
