package bench

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"github.com/hd-index/hdindex/internal/core"
	"github.com/hd-index/hdindex/internal/metrics"
	"github.com/hd-index/hdindex/internal/slo"
)

// SweepSpec asks RunSweep to walk one filter-cascade knob across
// several values on the SAME built index — the recall/latency frontier
// that used to require one rebuild per operating point. Only
// per-query knobs are sweepable: alpha (leaf candidates per tree) and
// gamma (per-tree filter output). The alpha sweep holds the paper's
// α/γ = 4 ratio (§5.2.6), flooring γ at k, so each point moves the
// whole cascade the way the paper's Figure 6 does; the gamma sweep
// moves γ alone at the built α.
type SweepSpec struct {
	Param  string // "alpha" or "gamma"
	Values []int
}

// ParseSweep parses the hdbench -sweep argument: "alpha=a1,a2,..." or
// "gamma=g1,g2,...". Values must be positive; duplicates are rejected
// so every frontier row is a distinct operating point.
func ParseSweep(s string) (*SweepSpec, error) {
	param, list, ok := strings.Cut(s, "=")
	if !ok {
		return nil, fmt.Errorf("sweep: want PARAM=v1,v2,..., got %q", s)
	}
	param = strings.TrimSpace(param)
	switch param {
	case "alpha", "gamma":
	default:
		return nil, fmt.Errorf("sweep: unknown parameter %q (want alpha or gamma)", param)
	}
	spec := &SweepSpec{Param: param}
	seen := make(map[int]bool)
	for _, f := range strings.Split(list, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("sweep: bad %s value %q", param, f)
		}
		if v < 1 {
			return nil, fmt.Errorf("sweep: %s values must be >= 1, got %d", param, v)
		}
		if seen[v] {
			return nil, fmt.Errorf("sweep: duplicate %s value %d", param, v)
		}
		seen[v] = true
		spec.Values = append(spec.Values, v)
	}
	if len(spec.Values) == 0 {
		return nil, fmt.Errorf("sweep: no values in %q", s)
	}
	// Walk the frontier smallest-first so the printed rows read as a
	// monotone cost curve whatever order the flag listed them in.
	slices.Sort(spec.Values)
	return spec, nil
}

// RunSweep builds SIFT10K (the first dataset of Table 4) at cfg.Scale
// as a bare single-index layout, reopens it cold, and walks spec's
// values over it with per-query overrides — no rebuild between points;
// the index never notices the knob moving. The result is the artifact
// internal/slo's tuner loads (`hdbench -sweep-out`, `hdserve
// -frontier`, `hdtool tune`): one point per value, smallest first, each
// carrying the full resolved cascade it ran with (echoed from
// QueryStats) — what a tuner or a request must set to reproduce the
// point exactly, whichever single knob the sweep nominally walked.
func RunSweep(cfg Config, spec *SweepSpec) (*slo.Frontier, error) {
	cfg.defaults()
	ds, _ := SpecByName("SIFT10K")
	w := MakeWorkload(ds, cfg)
	dir := filepath.Join(cfg.WorkDir, "sweep", ds.Name)
	p := HDParams(ds, len(w.Data.Vectors))
	p.Seed = cfg.Seed
	built, err := core.Build(dir, w.Data.Vectors, p)
	if err != nil {
		return nil, err
	}
	// Reopen before measuring: the just-built index's buffer pools are
	// still warm from construction.
	if err := built.Close(); err != nil {
		return nil, err
	}
	ix, err := core.Open(dir, core.OpenOptions{})
	if err != nil {
		return nil, err
	}
	defer ix.Close()

	f := &slo.Frontier{FormatVersion: slo.FrontierFormatVersion, Dataset: ds.Name, K: w.K}
	ctx := context.Background()
	for _, v := range spec.Values {
		var o core.SearchOptions
		switch spec.Param {
		case "gamma":
			o.Gamma = v
		default:
			o.Alpha = v
			// Hold the paper's α/γ = 4 (§5.2.6): sweeping α at a fixed
			// built γ would mostly move I/O without moving the refined
			// set. γ floors at k so the point can still return k results.
			o.Gamma = max(v/4, w.K)
		}
		var pt slo.Point
		var candidates int
		rep, err := slo.Measure(w.Queries, func(q []float32) ([]uint64, error) {
			res, st, err := ix.Query(ctx, q, w.K, o)
			if err != nil {
				return nil, err
			}
			candidates += st.Candidates
			pt.Alpha, pt.Gamma = st.Alpha, st.Gamma
			ids := make([]uint64, len(res))
			for i, r := range res {
				ids[i] = r.ID
			}
			return ids, nil
		})
		if err != nil {
			return nil, fmt.Errorf("sweep %s=%d: %w", spec.Param, v, err)
		}
		pt.MeanQueryUS, pt.P99QueryUS = rep.MeanQueryUS, rep.P99QueryUS
		pt.Recall = metrics.MeanRecall(rep.IDs, w.TruthIDs, w.K)
		pt.MAP = metrics.MAP(rep.IDs, w.TruthIDs, w.K)
		pt.CandidatesPerQuery = float64(candidates) / float64(len(w.Queries))
		f.Points = append(f.Points, pt)
	}
	return f, nil
}
