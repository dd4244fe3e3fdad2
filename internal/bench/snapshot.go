package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/hd-index/hdindex/internal/core"
	"github.com/hd-index/hdindex/internal/metrics"
	"github.com/hd-index/hdindex/internal/shard"
)

// Snapshot is a machine-readable perf baseline: the numbers a CI run (or
// a reviewer) diffs against the committed BENCH_PR*.json files to see
// the performance trajectory across PRs. It deliberately measures only
// HD-Index itself — build cost, per-query latency and I/O, batch
// throughput, and answer quality — not the baseline methods, which have
// their own experiment runners.
type Snapshot struct {
	GoVersion string          `json:"go_version"`
	GOOS      string          `json:"goos"`
	GOARCH    string          `json:"goarch"`
	Config    SnapshotConfig  `json:"config"`
	Datasets  []DatasetResult `json:"datasets"`
	// Build holds the build-only rows measured at Config.BuildScale;
	// absent when BuildScale is 0.
	Build []BuildResult `json:"build,omitempty"`
	// Sweep holds the recall/latency frontier rows: one per
	// (dataset, swept value), measured with per-query overrides on the
	// same built index the dataset row measured. Absent when
	// Config.Sweep is empty.
	Sweep []SweepRow `json:"sweep,omitempty"`
	// Ingest holds the mixed insert/search rows — WAL write throughput
	// vs the flush-per-insert path, read latency under writes, memtable
	// staleness peak. Absent when Config.Ingest is 0.
	Ingest []IngestResult `json:"ingest,omitempty"`
	// Overload holds the admission-control storm rows — shed rate,
	// accepted-tail latency, degraded fraction at ~4× the sustainable
	// rate. Absent when Config.Overload is false.
	Overload []OverloadResult `json:"overload,omitempty"`
	// Cluster holds the cluster-serving rows — coordinator
	// scatter-gather qps/p99 vs the in-process sharded index, hedged
	// fraction, failover behaviour with a dead replica. Absent when
	// Config.Cluster is false.
	Cluster []ClusterResult `json:"cluster,omitempty"`
	// Tiered holds the quality-tier rows — each named preset plus the
	// SLO tuner's auto choice measured on the built index. Absent when
	// Config.Tiered is false.
	Tiered []TieredResult `json:"tiered,omitempty"`
}

// snapshotParallelClients is the fixed concurrent-client count of the
// parallel-throughput measurement: fixed (rather than GOMAXPROCS) so
// snapshots from different machines stay comparable.
const snapshotParallelClients = 8

// SnapshotConfig records the knobs the numbers depend on.
type SnapshotConfig struct {
	Scale           float64 `json:"scale"`
	Queries         int     `json:"queries"`
	K               int     `json:"k"`
	Seed            int64   `json:"seed"`
	Shards          int     `json:"shards"` // 0 = bare single-index layout
	ParallelClients int     `json:"parallel_clients"`
	// BuildScale > 0 adds the build-only rows: each dataset built once
	// at this scale (typically 1, i.e. 10× the query-phase scale 0.1)
	// purely to measure construction cost at a size where the sort and
	// encode phases dominate.
	BuildScale float64 `json:"build_scale,omitempty"`
	// Sweep records the -sweep spec ("alpha=512,2048,...") whose
	// frontier rows Snapshot.Sweep holds; empty when no sweep ran.
	Sweep string `json:"sweep,omitempty"`
	// Ingest records the mixed-phase insert count behind
	// Snapshot.Ingest; 0 when the phase did not run.
	Ingest int `json:"ingest,omitempty"`
	// Overload records whether the overload-storm phase ran (the phase
	// itself has fixed shape: overloadInflight slots, overloadFactor×
	// closed-loop clients).
	Overload bool `json:"overload,omitempty"`
	// Cluster records whether the cluster-serving phase ran (fixed
	// shape: clusterShards shards × 2 replicas, clusterClients
	// closed-loop clients).
	Cluster bool `json:"cluster,omitempty"`
	// Tiered records whether the quality-tier phase ran (fixed shape:
	// the named presets plus the tuner's auto row at tieredTarget over
	// tieredGrid).
	Tiered bool `json:"tiered,omitempty"`
}

// BuildPhaseMS is the per-phase construction cost breakdown mirrored
// from core.BuildStats. Encode/sort/bulkload are summed across τ trees
// (and shards), so they can exceed wall-clock total on multi-core.
type BuildPhaseMS struct {
	RefDists float64 `json:"refdists"`
	Encode   float64 `json:"encode"`
	Sort     float64 `json:"sort"`
	BulkLoad float64 `json:"bulkload"`
	Total    float64 `json:"total"`
}

func phaseMS(bs *core.BuildStats) *BuildPhaseMS {
	if bs == nil {
		return nil
	}
	return &BuildPhaseMS{
		RefDists: bs.RefDistsMS,
		Encode:   bs.EncodeMS,
		Sort:     bs.SortMS,
		BulkLoad: bs.BulkLoadMS,
		Total:    bs.TotalMS,
	}
}

// BuildResult is one dataset's build-only row, measured at
// Config.BuildScale.
type BuildResult struct {
	Dataset     string        `json:"dataset"`
	N           int           `json:"n"`
	Dim         int           `json:"dim"`
	BuildMS     float64       `json:"build_ms"`
	BuildAllocs uint64        `json:"build_allocs"`
	PeakHeapMB  float64       `json:"peak_heap_mb"`
	IndexBytes  int64         `json:"index_bytes"`
	Phases      *BuildPhaseMS `json:"build_phase_ms,omitempty"`
}

// DatasetResult is one dataset's row of the snapshot.
type DatasetResult struct {
	Dataset     string  `json:"dataset"`
	N           int     `json:"n"`
	Dim         int     `json:"dim"`
	BuildMS     float64 `json:"build_ms"`
	IndexBytes  int64   `json:"index_bytes"`
	MeanQueryUS float64 `json:"mean_query_us"`
	// P50/P95/P99QueryUS are exact percentiles over the same per-query
	// wall times MeanQueryUS averages (sorted reference, not histogram
	// estimates): the tail the mean hides.
	P50QueryUS float64 `json:"p50_query_us"`
	P95QueryUS float64 `json:"p95_query_us"`
	P99QueryUS float64 `json:"p99_query_us"`
	BatchQPS   float64 `json:"batch_qps"` // queries/s through SearchBatch
	// BatchP50/P95/P99US are per-query latency percentiles inside the
	// SearchBatch run, read from the index's own telemetry histograms as
	// a scrape-window delta (estimates within 3.125%, the histogram's
	// resolution).
	BatchP50US        float64 `json:"batch_p50_us,omitempty"`
	BatchP95US        float64 `json:"batch_p95_us,omitempty"`
	BatchP99US        float64 `json:"batch_p99_us,omitempty"`
	MAP               float64 `json:"map"`
	Recall            float64 `json:"recall"` // recall@k vs. brute-force ground truth
	MeanRatio         float64 `json:"mean_ratio"`
	PageReadsPerQuery float64 `json:"page_reads_per_query"`
	// HitRatio is buffer-pool hits/(hits+misses) over the single-query
	// phase: the observable effect of the page-ordered candidate fetch.
	HitRatio float64 `json:"hit_ratio"`
	// ParallelQPS is throughput with snapshotParallelClients goroutines
	// each issuing single queries concurrently — the serving-shaped
	// number the sharded buffer pool exists to scale.
	ParallelQPS float64 `json:"parallel_qps"`
	// BuildAllocs counts heap allocations during the build whose wall
	// clock BuildMS reports; BuildPhases breaks that build down.
	BuildAllocs float64       `json:"build_allocs,omitempty"`
	BuildPhases *BuildPhaseMS `json:"build_phase_ms,omitempty"`
}

// RunSnapshot builds HD-Index over the named datasets (nil/empty = a
// representative default pair) and measures the serving-relevant
// numbers.
func RunSnapshot(cfg Config, datasets []string) (*Snapshot, error) {
	cfg.defaults()
	if len(datasets) == 0 {
		datasets = []string{"SIFT10K", "Audio"}
	}
	snap := &Snapshot{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Config: SnapshotConfig{
			Scale: cfg.Scale, Queries: cfg.Queries, K: cfg.K, Seed: cfg.Seed,
			Shards: cfg.Shards, ParallelClients: snapshotParallelClients,
			BuildScale: cfg.BuildScale, Sweep: cfg.Sweep.String(),
			Ingest: cfg.Ingest, Overload: cfg.Overload, Cluster: cfg.Cluster,
			Tiered: cfg.Tiered,
		},
	}
	for _, name := range datasets {
		spec, ok := SpecByName(name)
		if !ok {
			return nil, fmt.Errorf("bench: unknown dataset %q", name)
		}
		res, sweep, err := snapshotDataset(spec, cfg)
		if err != nil {
			return nil, err
		}
		snap.Datasets = append(snap.Datasets, res)
		snap.Sweep = append(snap.Sweep, sweep...)
	}
	// The quality-tier rows are latency measurements, so they run right
	// after the per-dataset query phases, before any phase that churns
	// the heap (builds, ingest) or saturates the box (storms).
	if cfg.Tiered {
		for _, name := range datasets {
			spec, _ := SpecByName(name)
			rows, err := snapshotTiered(spec, cfg)
			if err != nil {
				return nil, err
			}
			snap.Tiered = append(snap.Tiered, rows...)
		}
	}
	// The build-only rows run strictly after every query measurement:
	// a scale-BuildScale build churns tens of MB of heap, and running
	// one between two datasets' query phases measurably inflates the
	// later dataset's latencies (GC pressure), which the query numbers
	// must not absorb.
	if cfg.BuildScale > 0 {
		for _, name := range datasets {
			spec, _ := SpecByName(name)
			row, err := snapshotBuild(spec, cfg)
			if err != nil {
				return nil, err
			}
			snap.Build = append(snap.Build, row)
		}
	}
	// The mixed insert/search phase also runs after the query phases:
	// its storm churns the heap and the page cache, and its own numbers
	// (throughput over thousands of writes) are robust to that.
	if cfg.Ingest > 0 {
		for _, name := range datasets {
			spec, _ := SpecByName(name)
			row, err := snapshotIngest(spec, cfg)
			if err != nil {
				return nil, err
			}
			snap.Ingest = append(snap.Ingest, row)
		}
	}
	// The overload storm runs dead last: it deliberately saturates the
	// box, and nothing measured after it could be trusted anyway.
	if cfg.Overload {
		for _, name := range datasets {
			spec, _ := SpecByName(name)
			row, err := snapshotOverload(spec, cfg)
			if err != nil {
				return nil, err
			}
			snap.Overload = append(snap.Overload, row)
		}
	}
	// The cluster phase also saturates the box (closed-loop storms over
	// loopback HTTP), so it shares the after-everything slot with the
	// overload storm; both measure only themselves.
	if cfg.Cluster {
		for _, name := range datasets {
			spec, _ := SpecByName(name)
			row, err := snapshotCluster(spec, cfg)
			if err != nil {
				return nil, err
			}
			snap.Cluster = append(snap.Cluster, row)
		}
	}
	return snap, nil
}

// snapshotBuild measures construction only, at cfg.BuildScale: no
// queries, no ground truth — the row exists to watch build wall clock,
// allocations, and the phase split at a size where they matter.
func snapshotBuild(spec DataSpec, cfg Config) (BuildResult, error) {
	n := int(float64(spec.BaseN) * cfg.BuildScale)
	if n < 300 {
		n = 300
	}
	ds := spec.Gen(n, cfg.Seed+int64(len(spec.Name)))
	out := BuildResult{Dataset: spec.Name, N: n, Dim: ds.Dim}

	dir := filepath.Join(cfg.WorkDir, "snapshot-build", spec.Name)
	p := HDParams(spec, n)
	p.Seed = cfg.Seed

	t0 := time.Now()
	built, err := shard.Build(dir, ds.Vectors, shard.Params{Params: p, Shards: cfg.Shards})
	if err != nil {
		return out, err
	}
	out.BuildMS = float64(time.Since(t0).Microseconds()) / 1e3
	if bs := built.BuildStats(); bs != nil {
		out.BuildAllocs = bs.Allocs
		out.PeakHeapMB = float64(bs.PeakHeapBytes) / (1 << 20)
		out.Phases = phaseMS(bs)
	}
	out.IndexBytes = built.SizeOnDisk()
	return out, built.Close()
}

// exactPercentile returns the nearest-rank q-th percentile of sorted —
// the k = ceil(q·n)-th smallest value — matching the convention the
// telemetry histograms estimate.
func exactPercentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q * float64(len(sorted))))
	if k < 1 {
		k = 1
	}
	return sorted[k-1]
}

func snapshotDataset(spec DataSpec, cfg Config) (DatasetResult, []SweepRow, error) {
	w := MakeWorkload(spec, cfg)
	n := len(w.Data.Vectors)
	out := DatasetResult{Dataset: spec.Name, N: n, Dim: w.Data.Dim}

	dir := filepath.Join(cfg.WorkDir, "snapshot", spec.Name)
	p := HDParams(spec, n)
	p.Seed = cfg.Seed

	t0 := time.Now()
	built, err := shard.Build(dir, w.Data.Vectors, shard.Params{Params: p, Shards: cfg.Shards})
	if err != nil {
		return out, nil, err
	}
	out.BuildMS = float64(time.Since(t0).Microseconds()) / 1e3
	if bs := built.BuildStats(); bs != nil {
		out.BuildAllocs = float64(bs.Allocs)
		out.BuildPhases = phaseMS(bs)
	}

	// Reopen before measuring: querying the just-built index would hit
	// a buffer pool still warm from construction and report zero page
	// reads, hiding any I/O regression the snapshot exists to catch.
	if err := built.Close(); err != nil {
		return out, nil, err
	}
	ix, err := shard.Open(dir, core.OpenOptions{})
	if err != nil {
		return out, nil, err
	}
	defer ix.Close()
	ctx := context.Background()
	out.IndexBytes = ix.SizeOnDisk()

	// Single-query latency, quality, and I/O. Only the Query call is
	// timed — metric bookkeeping must not inflate the baseline.
	var got [][]uint64
	var ratioSum float64
	var reads, hits, misses uint64
	var elapsed time.Duration
	perQuery := make([]time.Duration, 0, len(w.Queries))
	for qi, q := range w.Queries {
		t := time.Now()
		res, st, err := ix.Query(ctx, q, w.K, core.SearchOptions{})
		d := time.Since(t)
		elapsed += d
		perQuery = append(perQuery, d)
		if err != nil {
			return out, nil, err
		}
		ids := make([]uint64, len(res))
		dists := make([]float64, len(res))
		for i, r := range res {
			ids[i] = r.ID
			dists[i] = r.Dist
		}
		got = append(got, ids)
		ratioSum += metrics.Ratio(dists, w.TruthDs[qi])
		reads += st.PageReads
		hits += st.PageHits
		misses += st.PageMisses
	}
	nq := len(w.Queries)
	out.MeanQueryUS = float64(elapsed.Microseconds()) / float64(nq)
	slices.Sort(perQuery)
	out.P50QueryUS = float64(exactPercentile(perQuery, 0.50).Nanoseconds()) / 1e3
	out.P95QueryUS = float64(exactPercentile(perQuery, 0.95).Nanoseconds()) / 1e3
	out.P99QueryUS = float64(exactPercentile(perQuery, 0.99).Nanoseconds()) / 1e3
	out.MAP = metrics.MAP(got, w.TruthIDs, w.K)
	out.Recall = metrics.MeanRecall(got, w.TruthIDs, w.K)
	out.MeanRatio = ratioSum / float64(nq)
	out.PageReadsPerQuery = float64(reads) / float64(nq)
	if total := hits + misses; total > 0 {
		out.HitRatio = float64(hits) / float64(total)
	}

	// Batch throughput through the bounded worker pool. The per-query
	// latency percentiles inside the batch come from the index's own
	// telemetry: snapshot the query histogram around the call and read
	// the delta — the same windowing a /metrics scraper does.
	telBefore := ix.Telemetry().Query
	t0 = time.Now()
	if _, _, err := ix.QueryBatch(ctx, w.Queries, w.K, core.SearchOptions{}); err != nil {
		return out, nil, err
	}
	if d := time.Since(t0).Seconds(); d > 0 {
		out.BatchQPS = float64(nq) / d
	}
	if delta := ix.Telemetry().Query.Sub(telBefore); delta.Count > 0 {
		out.BatchP50US = delta.Quantile(0.50) / 1e3
		out.BatchP95US = delta.Quantile(0.95) / 1e3
		out.BatchP99US = delta.Quantile(0.99) / 1e3
	}

	// Concurrent-clients throughput: independent goroutines issuing
	// single queries, the access pattern the lock-striped buffer pool
	// serves. Each client replays the query set once, phase-shifted so
	// clients do not march over the same pages in lockstep.
	errs := make([]error, snapshotParallelClients)
	var wg sync.WaitGroup
	t0 = time.Now()
	for c := 0; c < snapshotParallelClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for qi := range w.Queries {
				q := w.Queries[(qi+c)%nq]
				if _, _, err := ix.Query(ctx, q, w.K, core.SearchOptions{}); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	parallelD := time.Since(t0).Seconds()
	for _, err := range errs {
		if err != nil {
			return out, nil, err
		}
	}
	if parallelD > 0 {
		out.ParallelQPS = float64(snapshotParallelClients*nq) / parallelD
	}

	// The frontier sweep runs last, after every baseline measurement,
	// reusing the same open index: each point is the same query set
	// under a different per-query override — the rows exist to show the
	// knob moving recall/candidates with zero rebuilds.
	var sweep []SweepRow
	if cfg.Sweep != nil {
		if sweep, err = sweepDataset(ix, w, cfg.Sweep); err != nil {
			return out, nil, err
		}
	}
	return out, sweep, nil
}

// WriteJSON renders the snapshot, indented for a stable committed diff.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
