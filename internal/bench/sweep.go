package bench

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/hd-index/hdindex/internal/core"
	"github.com/hd-index/hdindex/internal/metrics"
	"github.com/hd-index/hdindex/internal/shard"
	"github.com/hd-index/hdindex/internal/slo"
)

// SweepSpec asks the snapshot runner to walk one filter-cascade knob
// across several values on the SAME built index — the recall/latency
// frontier that used to require one rebuild per operating point. Only
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
	sort.Ints(spec.Values)
	return spec, nil
}

// String renders the spec back into the flag syntax it was parsed from;
// it is what SnapshotConfig records.
func (s *SweepSpec) String() string {
	if s == nil {
		return ""
	}
	vals := make([]string, len(s.Values))
	for i, v := range s.Values {
		vals[i] = strconv.Itoa(v)
	}
	return s.Param + "=" + strings.Join(vals, ",")
}

// SweepRow is one operating point of the recall/latency frontier: the
// swept knob's value plus the quality and cost observed at it, measured
// over the workload's query set on the already-built index.
type SweepRow struct {
	Dataset string `json:"dataset"`
	Param   string `json:"param"`
	Value   int    `json:"value"`
	// Alpha/Gamma are the full resolved cascade the point ran with
	// (echoed from QueryStats) — what a tuner or a request must set to
	// reproduce this operating point exactly, whichever single knob the
	// sweep nominally walked.
	Alpha              int     `json:"alpha,omitempty"`
	Gamma              int     `json:"gamma,omitempty"`
	MeanQueryUS        float64 `json:"mean_query_us"`
	P99QueryUS         float64 `json:"p99_query_us,omitempty"`
	Recall             float64 `json:"recall"`
	MAP                float64 `json:"map"`
	CandidatesPerQuery float64 `json:"candidates_per_query"`
	PageReadsPerQuery  float64 `json:"page_reads_per_query"`
}

// Frontier converts sweep rows for one dataset into the artifact
// internal/slo's tuner loads (`hdbench -sweep-out`).
func Frontier(rows []SweepRow, dataset string, k int) *slo.Frontier {
	f := &slo.Frontier{FormatVersion: slo.FrontierFormatVersion, Dataset: dataset, K: k}
	for _, r := range rows {
		if r.Dataset != dataset {
			continue
		}
		f.Points = append(f.Points, slo.Point{
			Alpha:              r.Alpha,
			Gamma:              r.Gamma,
			MeanQueryUS:        r.MeanQueryUS,
			P99QueryUS:         r.P99QueryUS,
			Recall:             r.Recall,
			MAP:                r.MAP,
			CandidatesPerQuery: r.CandidatesPerQuery,
		})
	}
	return f
}

// sweepDataset walks the spec's values over the open index, issuing the
// workload's queries with the per-query override — no rebuild between
// points; the index never notices the knob moving.
func sweepDataset(ix *shard.Sharded, w *Workload, spec *SweepSpec) ([]SweepRow, error) {
	rows := make([]SweepRow, 0, len(spec.Values))
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
		var got [][]uint64
		var candidates, reads uint64
		var elapsed time.Duration
		var effAlpha, effGamma int
		perQuery := make([]time.Duration, 0, len(w.Queries))
		for _, q := range w.Queries {
			t0 := time.Now()
			res, st, err := ix.Query(ctx, q, w.K, o)
			d := time.Since(t0)
			elapsed += d
			perQuery = append(perQuery, d)
			if err != nil {
				return nil, fmt.Errorf("sweep %s=%d: %w", spec.Param, v, err)
			}
			ids := make([]uint64, len(res))
			for i, r := range res {
				ids[i] = r.ID
			}
			got = append(got, ids)
			candidates += uint64(st.Candidates)
			reads += st.PageReads
			effAlpha, effGamma = st.Alpha, st.Gamma
		}
		sort.Slice(perQuery, func(i, j int) bool { return perQuery[i] < perQuery[j] })
		nq := float64(len(w.Queries))
		rows = append(rows, SweepRow{
			Dataset:            w.Spec.Name,
			Param:              spec.Param,
			Value:              v,
			Alpha:              effAlpha,
			Gamma:              effGamma,
			MeanQueryUS:        float64(elapsed.Microseconds()) / nq,
			P99QueryUS:         float64(exactPercentile(perQuery, 0.99).Nanoseconds()) / 1e3,
			Recall:             metrics.MeanRecall(got, w.TruthIDs, w.K),
			MAP:                metrics.MAP(got, w.TruthIDs, w.K),
			CandidatesPerQuery: float64(candidates) / nq,
			PageReadsPerQuery:  float64(reads) / nq,
		})
	}
	return rows, nil
}
